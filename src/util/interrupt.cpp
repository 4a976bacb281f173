#include "util/interrupt.hpp"

#include <pthread.h>
#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>

namespace pipesched {

namespace {

struct InterruptState {
  std::mutex mutex;
  std::function<void(int)> cleanup;
  bool installed = false;
};

InterruptState& state() {
  static InterruptState* s = new InterruptState;  // outlives the watcher
  return *s;
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGINT:
      return "SIGINT";
    case SIGTERM:
      return "SIGTERM";
    default:
      return "signal";
  }
}

void watcher_loop() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  int sig = 0;
  while (sigwait(&set, &sig) != 0) {
  }
  std::cerr << "\ninterrupted (" << signal_name(sig)
            << "): flushing observability outputs before exit\n";
  std::function<void(int)> cleanup;
  {
    InterruptState& s = state();
    std::lock_guard lock(s.mutex);
    cleanup = s.cleanup;
  }
  if (cleanup) {
    try {
      cleanup(sig);
    } catch (const std::exception& e) {
      std::cerr << "interrupt cleanup failed: " << e.what() << "\n";
    } catch (...) {
      std::cerr << "interrupt cleanup failed\n";
    }
  }
  std::cerr.flush();
  std::cout.flush();
  // Skip static destructors: worker threads are still running and their
  // shared state must stay alive under them until the kernel reaps us.
  std::_Exit(128 + sig);
}

}  // namespace

void install_graceful_interrupt(std::function<void(int)> cleanup) {
  InterruptState& s = state();
  std::lock_guard lock(s.mutex);
  s.cleanup = std::move(cleanup);
  if (s.installed) return;
  s.installed = true;
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  // Block in the installing thread; every thread spawned afterwards
  // inherits the mask, leaving the watcher as the sole receiver.
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::thread(watcher_loop).detach();
}

}  // namespace pipesched
