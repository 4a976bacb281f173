// Per-thread slots: the one registration pattern under the trace buffers,
// the profiler's phase stacks and the metrics cells.
//
// A ThreadSlots<T> gives each thread its own T. A thread's first local()
// creates the T and registers it under the set's mutex; every later
// local() is a lookup in a thread-local table indexed by the set's id, so
// the owning thread then writes its T without locks. Readers visit every
// slot with for_each(), in registration order, under the same mutex.
//
// Slots are owned by the set, not the thread: a thread may exit and its
// slot (with whatever it accumulated) stays readable. The process-wide
// sets are leaked, so their slots live as long as the process. Set ids
// are never reused, so a destroyed set's stale table entries are never
// followed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pipesched {

namespace thread_slots_detail {

inline std::atomic<std::uint32_t> g_next_id{0};

/// The calling thread's slot pointers, indexed by set id.
inline std::vector<void*>& table() {
  thread_local std::vector<void*> slots;
  return slots;
}

}  // namespace thread_slots_detail

template <class T>
class ThreadSlots {
 public:
  ThreadSlots()
      : id_(thread_slots_detail::g_next_id.fetch_add(
            1, std::memory_order_relaxed)) {}
  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  /// The calling thread's slot; the thread's first call registers it.
  T& local() {
    std::vector<void*>& table = thread_slots_detail::table();
    if (id_ < table.size() && table[id_] != nullptr) {
      return *static_cast<T*>(table[id_]);
    }
    return add_local(table);
  }

  /// Call f(id, slot) for every slot in registration order, holding the
  /// set's mutex, so `f` must not register a slot in this set. `id` is 1
  /// for the first thread registered, then 2, ...
  template <class F>
  void for_each(F&& f) const {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      f(static_cast<std::uint32_t>(i + 1), *slots_[i]);
    }
  }

 private:
  T& add_local(std::vector<void*>& table) {
    auto owned = std::make_unique<T>();
    T* slot = owned.get();
    {
      std::lock_guard lock(mutex_);
      slots_.push_back(std::move(owned));
    }
    if (table.size() <= id_) table.resize(id_ + 1, nullptr);
    table[id_] = slot;
    return *slot;
  }

  const std::uint32_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace pipesched
