// Graceful SIGINT/SIGTERM handling for the long-running entry points.
//
// Before this existed, Ctrl-C on a multi-minute corpus run killed the
// process mid-write: the --metrics/--trace/--profile outputs the user
// asked for were silently lost and a tty progress line was left
// half-drawn. install_graceful_interrupt() turns both signals into an
// orderly shutdown: a registered cleanup callback flushes whatever
// observability outputs are pending (and stops the embedded HTTP server
// if one is serving), then the process exits with the conventional
// 128+signo status.
//
// Mechanism: the calling thread BLOCKS both signals (call this early,
// before spawning worker threads, so every later thread inherits the
// mask) and a small detached watcher thread sigwait()s on them. Unlike
// an async signal handler, the watcher is an ordinary thread — the
// cleanup may take locks, allocate, and do file I/O freely. The watcher
// runs the cleanup at most once, then _Exit()s: static destructors are
// deliberately skipped because worker threads are still mid-task and
// tearing their state down under them is exactly the crash this module
// exists to avoid. Cleanups must flush the streams they care about.
#pragma once

#include <functional>

namespace pipesched {

/// Install (or replace) the interrupt cleanup. First call blocks
/// SIGINT/SIGTERM in the calling thread and starts the watcher; later
/// calls only swap the callback. The callback receives the signal
/// number; exceptions it throws are swallowed (best-effort flush).
void install_graceful_interrupt(std::function<void(int)> cleanup);

}  // namespace pipesched
