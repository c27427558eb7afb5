#pragma once

/// \file daemon.hpp
/// ccpred_serverd as a child process: started with `serve --port 0`, its
/// ephemeral port read from the listening line it prints on stderr, and
/// stopped the way an operator stops it — EOF on stdin — then reaped.

#include <sys/types.h>

#include <string>
#include <vector>

namespace ccpred::ledger {

class Daemon {
 public:
  /// Runs `binary serve <args...> --port 0` and waits up to `timeout_s`
  /// for it to listen. The child gets SIGKILL if this process dies first.
  /// Throws ccpred::Error if it exits or stays silent instead.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         double timeout_s);
  /// Stops the daemon if stop() was not called.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Closes stdin, waits up to `timeout_s` for a clean exit (SIGKILL
  /// after that) and returns the exit status; -1 if it had to be killed.
  int stop(double timeout_s = 20.0);

  /// User + system CPU time the daemon has used so far, in ms.
  double cpu_ms() const;
  /// Peak resident set size (VmHWM), in MiB.
  double peak_rss_mib() const;

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

}  // namespace ccpred::ledger
