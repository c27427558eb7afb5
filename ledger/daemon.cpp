#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <thread>

#include "ccpred/common/error.hpp"
#include "ledger.hpp"

namespace ccpred::ledger {
namespace {

constexpr const char* kListening = "listening on 127.0.0.1:";

/// Reads what is available on `fd` into `text` for up to `timeout_ns`.
/// Returns false at EOF.
bool read_some(int fd, std::string* text, std::int64_t timeout_ns) {
  pollfd pfd{fd, POLLIN, 0};
  const int ms =
      static_cast<int>(std::max<std::int64_t>(timeout_ns / 1'000'000, 1));
  if (::poll(&pfd, 1, ms) <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  if (n == 0) return false;
  text->append(buf, static_cast<std::size_t>(n));
  return true;
}

std::string proc_file(pid_t pid, const char* name) {
  return read_file("/proc/" + std::to_string(pid) + "/" + name);
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               double timeout_s) {
  std::vector<std::string> argv_s = {binary, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port");
  argv_s.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int in_pipe[2];
  int err_pipe[2];
  CCPRED_CHECK_MSG(::pipe2(in_pipe, O_CLOEXEC) == 0 &&
                       ::pipe2(err_pipe, O_CLOEXEC) == 0,
                   "cannot create daemon pipes");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  CCPRED_CHECK_MSG(pid_ >= 0, "fork failed: " << std::strerror(errno));
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(err_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stderr_fd_ = err_pipe[0];

  std::string text;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::size_t at = std::string::npos;
  while ((at = text.find(kListening)) == std::string::npos ||
         text.find(' ', at + std::strlen(kListening)) == std::string::npos) {
    const std::int64_t left = deadline - now_ns();
    if (left <= 0 || !read_some(stderr_fd_, &text, left)) {
      stop(5.0);
      CCPRED_CHECK_MSG(false, "ccpred_serverd did not start: " << text);
    }
  }
  port_ = std::atoi(text.c_str() + at + std::strlen(kListening));
  CCPRED_CHECK_MSG(port_ > 0, "bad listening line: " << text);
}

Daemon::~Daemon() {
  if (pid_ > 0) stop(5.0);
}

int Daemon::stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  // Keep draining stderr (the final stats line) so a full pipe can never
  // block the daemon's exit.
  std::string tail;
  while (stderr_fd_ >= 0 && now_ns() < deadline &&
         read_some(stderr_fd_, &tail, deadline - now_ns())) {
  }
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int code = -1;
  if (done == pid_) {
    code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
  pid_ = -1;
  return code;
}

double Daemon::cpu_ms() const {
  const std::string stat = proc_file(pid_, "stat");
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mib() const {
  const std::string status = proc_file(pid_, "status");
  const std::size_t at = status.find("VmHWM:");
  CCPRED_CHECK_MSG(at != std::string::npos, "no VmHWM for pid " << pid_);
  return std::atof(status.c_str() + at + 6) / 1024.0;
}

}  // namespace ccpred::ledger
