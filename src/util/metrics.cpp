#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/build_info.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"  // json_quote

namespace pipesched {

namespace metrics_detail {

std::atomic<bool> g_enabled{false};

}  // namespace metrics_detail

/// Sole friend of the instrument classes: constructs them (constructors
/// are private so only the registry can mint instruments) and zeroes
/// their cells for metrics_reset().
class MetricsRegistry {
 public:
  static Counter* make_counter() { return new Counter(); }
  static Gauge* make_gauge() { return new Gauge(); }
  static LogHistogram* make_histogram() { return new LogHistogram(); }

  static void reset(Counter& c) {
    c.cells_.for_each([](std::uint32_t, metrics_detail::Cell& cell) {
      cell.count.store(0, std::memory_order_relaxed);
    });
  }

  static void reset(Gauge& g) {
    g.value_.store(0, std::memory_order_relaxed);
  }

  static void reset(LogHistogram& h) {
    h.cells_.for_each([](std::uint32_t, LogHistogram::HistoCell& cell) {
      for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
    });
  }
};

namespace {

using Kind = MetricsSnapshot::Kind;

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty() || name == "le") return false;  // reserved for buckets
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

/// Canonicalize (sort by key, validate) the labels of one registration.
MetricLabels canonical_labels(const std::string& name,
                              const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    PS_CHECK(valid_label_name(sorted[i].first),
             "invalid metric label name '" << sorted[i].first << "' on "
                                           << name);
    PS_CHECK(i == 0 || sorted[i].first != sorted[i - 1].first,
             "duplicate metric label '" << sorted[i].first << "' on "
                                        << name);
  }
  return sorted;
}

std::string series_key(const std::string& name, const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  return key;
}

struct Instrument {
  Kind kind = Kind::Counter;
  std::string name;
  MetricLabels labels;
  std::string help;
  // Exactly one is non-null, matching `kind`. Owned here, never freed
  // (process lifetime; references handed out must not dangle).
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  LogHistogram* histogram = nullptr;
};

struct Registry {
  std::mutex mutex;
  /// A deque, because find_or_create hands out references that callers
  /// read after the lock is released: push_back on a deque never moves
  /// existing elements, while a vector's reallocation would free them
  /// under a concurrent reader.
  std::deque<Instrument> instruments;
  std::unordered_map<std::string, std::size_t> by_key;
  std::unordered_map<std::string, Kind> family_kind;  // name -> kind
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlive all worker threads
  return *r;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "?";
}

Instrument& find_or_create(const std::string& name,
                           const MetricLabels& labels,
                           const std::string& help, Kind kind) {
  PS_CHECK(valid_metric_name(name), "invalid metric name: '" << name << "'");
  const MetricLabels sorted = canonical_labels(name, labels);
  const std::string key = series_key(name, sorted);

  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  if (const auto it = reg.by_key.find(key); it != reg.by_key.end()) {
    Instrument& existing = reg.instruments[it->second];
    PS_CHECK(existing.kind == kind,
             "metric '" << name << "' already registered as "
                        << kind_name(existing.kind) << ", requested "
                        << kind_name(kind));
    return existing;
  }
  // A family (name) must keep one type across all label sets.
  if (const auto it = reg.family_kind.find(name);
      it != reg.family_kind.end()) {
    PS_CHECK(it->second == kind,
             "metric family '" << name << "' already registered as "
                               << kind_name(it->second) << ", requested "
                               << kind_name(kind));
  } else {
    reg.family_kind.emplace(name, kind);
  }

  Instrument inst;
  inst.kind = kind;
  inst.name = name;
  inst.labels = sorted;
  inst.help = help;
  switch (kind) {
    case Kind::Counter:
      inst.counter = MetricsRegistry::make_counter();
      break;
    case Kind::Gauge:
      inst.gauge = MetricsRegistry::make_gauge();
      break;
    case Kind::Histogram:
      inst.histogram = MetricsRegistry::make_histogram();
      break;
  }
  reg.instruments.push_back(std::move(inst));
  reg.by_key.emplace(key, reg.instruments.size() - 1);
  return reg.instruments.back();
}

/// Format a double with enough digits to round-trip (bucket bounds are
/// powers of two, so this prints them exactly).
std::string format_double(double v) {
  std::ostringstream oss;
  oss << std::setprecision(17) << v;
  return oss.str();
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_label_set(const MetricLabels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_label_value(v) + "\"";
  };
  for (const auto& [k, v] : labels) emit(k, v);
  if (!extra_key.empty()) emit(extra_key, extra_value);
  out += "}";
  return out;
}

}  // namespace

void metrics_enable() {
  metrics_detail::g_enabled.store(true, std::memory_order_relaxed);
  // Every live registry identifies the binary that fills it: scrapers
  // and roll-ups join on these labels (see build_info.hpp).
  register_build_info_metric();
}

void metrics_disable() {
  metrics_detail::g_enabled.store(false, std::memory_order_relaxed);
}

void metrics_reset() {
  {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    for (Instrument& inst : reg.instruments) {
      switch (inst.kind) {
        case Kind::Counter:
          MetricsRegistry::reset(*inst.counter);
          break;
        case Kind::Gauge:
          MetricsRegistry::reset(*inst.gauge);
          break;
        case Kind::Histogram:
          MetricsRegistry::reset(*inst.histogram);
          break;
      }
    }
  }
  // The reset just zeroed ps_build_info with every other gauge; restore
  // its constant 1 (outside the registry lock — the gauge factory
  // re-enters it). Gauge writes are enable-gated, hence the check.
  if (metrics_enabled()) register_build_info_metric();
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  cells_.for_each([&](std::uint32_t, const metrics_detail::Cell& cell) {
    total += cell.count.load(std::memory_order_relaxed);
  });
  return total;
}

void LogHistogram::observe(double value) {
  if (!metrics_enabled()) return;
  HistoCell& c = cells_.local();
  c.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
  metrics_detail::atomic_add_double(c.sum, value);
}

double LogHistogram::bucket_le(int index) {
  PS_ASSERT(index >= 0 && index < kBuckets);
  if (index == kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, kMinExp + index);
}

int LogHistogram::bucket_index(double value) {
  // Non-positive (and NaN) observations land in the smallest bucket: the
  // histogram tracks durations, where 0 means "below clock resolution".
  if (!(value > 0)) return 0;
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp
  // Smallest k with value <= 2^k: k = exp unless value is an exact power
  // of two (mantissa 0.5), which belongs to its own le=2^(exp-1) bucket.
  const int k = (mantissa == 0.5) ? exp - 1 : exp;
  if (k <= kMinExp) return 0;
  if (k > kMaxExp) return kBuckets - 1;
  return k - kMinExp;
}

LogHistogram::Totals LogHistogram::totals() const {
  Totals t;
  cells_.for_each([&](std::uint32_t, const HistoCell& cell) {
    for (int i = 0; i < kBuckets; ++i) {
      t.buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
    t.count += cell.count.load(std::memory_order_relaxed);
    t.sum += cell.sum.load(std::memory_order_relaxed);
  });
  return t;
}

Counter& metrics_counter(const std::string& name, const MetricLabels& labels,
                         const std::string& help) {
  return *find_or_create(name, labels, help, Kind::Counter).counter;
}

Gauge& metrics_gauge(const std::string& name, const MetricLabels& labels,
                     const std::string& help) {
  return *find_or_create(name, labels, help, Kind::Gauge).gauge;
}

LogHistogram& metrics_histogram(const std::string& name,
                                const MetricLabels& labels,
                                const std::string& help) {
  return *find_or_create(name, labels, help, Kind::Histogram).histogram;
}

const MetricsSnapshot::Series* MetricsSnapshot::find(
    const std::string& name, const MetricLabels& labels) const {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const Series& s : series) {
    if (s.name == name && s.labels == sorted) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or_zero(const std::string& name,
                                      const MetricLabels& labels) const {
  const Series* s = find(name, labels);
  return s != nullptr ? s->value : 0.0;
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snapshot;
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  snapshot.series.reserve(reg.instruments.size());
  for (const Instrument& inst : reg.instruments) {
    MetricsSnapshot::Series s;
    s.name = inst.name;
    s.labels = inst.labels;
    s.help = inst.help;
    s.kind = inst.kind;
    switch (inst.kind) {
      case Kind::Counter:
        s.value = static_cast<double>(inst.counter->value());
        break;
      case Kind::Gauge:
        s.value = inst.gauge->value();
        break;
      case Kind::Histogram: {
        const LogHistogram::Totals t = inst.histogram->totals();
        s.buckets.resize(LogHistogram::kBuckets);
        std::uint64_t cumulative = 0;
        for (int i = 0; i < LogHistogram::kBuckets; ++i) {
          cumulative += t.buckets[i];
          s.buckets[static_cast<std::size_t>(i)] = cumulative;
        }
        s.count = t.count;
        s.sum = t.sum;
        break;
      }
    }
    snapshot.series.push_back(std::move(s));
  }
  std::sort(snapshot.series.begin(), snapshot.series.end(),
            [](const MetricsSnapshot::Series& a,
               const MetricsSnapshot::Series& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snapshot;
}

double histogram_quantile(const MetricsSnapshot::Series& series, double q) {
  if (series.kind != MetricsSnapshot::Kind::Histogram ||
      series.count == 0 || series.buckets.empty() || !(q >= 0) || q > 1) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Rank of the target observation among `count` (1-based, like
  // Prometheus histogram_quantile); buckets are cumulative.
  const double rank = q * static_cast<double>(series.count);
  std::size_t bucket = 0;
  while (bucket + 1 < series.buckets.size() &&
         static_cast<double>(series.buckets[bucket]) < rank) {
    ++bucket;
  }
  const int last = static_cast<int>(series.buckets.size()) - 1;
  if (static_cast<int>(bucket) >= last) {
    // Overflow bucket has no finite upper bound; report the largest
    // finite boundary (Prometheus does the same).
    return LogHistogram::bucket_le(last - 1);
  }
  const double hi = LogHistogram::bucket_le(static_cast<int>(bucket));
  const double lo =
      bucket == 0 ? 0.0 : LogHistogram::bucket_le(static_cast<int>(bucket) - 1);
  const std::uint64_t below = bucket == 0 ? 0 : series.buckets[bucket - 1];
  const std::uint64_t in_bucket = series.buckets[bucket] - below;
  if (in_bucket == 0) return hi;
  const double frac =
      (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
  return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
}

void MetricsSnapshot::write_prometheus(std::ostream& out) const {
  std::string current_family;
  for (const Series& s : series) {
    if (s.name != current_family) {
      current_family = s.name;
      if (!s.help.empty()) {
        std::string help;
        for (char c : s.help) {
          if (c == '\\') {
            help += "\\\\";
          } else if (c == '\n') {
            help += "\\n";
          } else {
            help += c;
          }
        }
        out << "# HELP " << s.name << " " << help << "\n";
      }
      const char* type = s.kind == Kind::Counter    ? "counter"
                         : s.kind == Kind::Gauge    ? "gauge"
                                                    : "histogram";
      out << "# TYPE " << s.name << " " << type << "\n";
    }
    if (s.kind == Kind::Histogram) {
      for (int i = 0; i < LogHistogram::kBuckets; ++i) {
        const double le = LogHistogram::bucket_le(i);
        out << s.name << "_bucket"
            << render_label_set(s.labels, "le",
                                std::isinf(le) ? "+Inf" : format_double(le))
            << " " << s.buckets[static_cast<std::size_t>(i)] << "\n";
      }
      out << s.name << "_sum" << render_label_set(s.labels) << " "
          << format_double(s.sum) << "\n";
      out << s.name << "_count" << render_label_set(s.labels) << " "
          << s.count << "\n";
    } else {
      out << s.name << render_label_set(s.labels) << " "
          << format_double(s.value) << "\n";
    }
  }
}

namespace {

void write_json_labels(std::ostream& out, const MetricLabels& labels) {
  out << "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << json_quote(k) << ":" << json_quote(v);
  }
  out << "}";
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& out) const {
  auto write_section = [&](const char* section, Kind kind, bool last) {
    out << "  " << json_quote(section) << ": [";
    bool first = true;
    for (const Series& s : series) {
      if (s.kind != kind) continue;
      out << (first ? "\n" : ",\n") << "    {\"name\":" << json_quote(s.name)
          << ",";
      first = false;
      write_json_labels(out, s.labels);
      if (kind == Kind::Histogram) {
        out << ",\"count\":" << s.count << ",\"sum\":" << format_double(s.sum)
            << ",\"buckets\":[";
        for (int i = 0; i < LogHistogram::kBuckets; ++i) {
          if (i > 0) out << ",";
          const double le = LogHistogram::bucket_le(i);
          out << "{\"le\":";
          if (std::isinf(le)) {
            out << "\"+Inf\"";
          } else {
            out << format_double(le);
          }
          out << ",\"count\":" << s.buckets[static_cast<std::size_t>(i)]
              << "}";
        }
        out << "]}";
      } else {
        out << ",\"value\":" << format_double(s.value) << "}";
      }
    }
    out << (first ? "]" : "\n  ]") << (last ? "\n" : ",\n");
  };
  out << "{\n";
  write_section("counters", Kind::Counter, false);
  write_section("gauges", Kind::Gauge, false);
  write_section("histograms", Kind::Histogram, true);
  out << "}\n";
}

void metrics_write(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  const bool prometheus = ext == ".prom" || ext == ".txt";
  PS_CHECK(prometheus || ext == ".json",
           "metrics export path must end in .prom, .txt, or .json: "
               << path);
  std::ofstream out(path);
  PS_CHECK(out.good(), "cannot open metrics file: " << path);
  const MetricsSnapshot snapshot = metrics_snapshot();
  if (prometheus) {
    snapshot.write_prometheus(out);
  } else {
    snapshot.write_json(out);
  }
  out.flush();
  PS_CHECK(out.good(), "write failure on metrics file: " << path);
}

std::string metrics_summary_line() {
  const MetricsSnapshot snapshot = metrics_snapshot();
  std::size_t counters = 0, gauges = 0, histograms = 0;
  for (const auto& s : snapshot.series) {
    switch (s.kind) {
      case Kind::Counter: ++counters; break;
      case Kind::Gauge: ++gauges; break;
      case Kind::Histogram: ++histograms; break;
    }
  }
  std::ostringstream oss;
  oss << "metrics: " << snapshot.series.size() << " series (" << counters
      << " counters, " << gauges << " gauges, " << histograms
      << " histograms)";
  return oss.str();
}

}  // namespace pipesched
