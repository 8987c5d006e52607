//===- ChildProbe.cpp - Runs one command and reports its peak RSS ---------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Usage: igen_child_probe <program> [args...]
//
// Runs the program with stdout and stderr on /dev/null, waits for it, and
// prints `<exit code> <peak RSS in KiB> <wall time in ns>` on stdout.
//
// Linux carries the peak resident set of the memory a process execs from
// into the new program's ru_maxrss, and a posix_spawn child execs from its
// parent's memory: an `igen` CLI started by igen_benchmark, whose kernel
// inputs take tens of MB, would report at least that much. This process is
// small, and forks the program instead, so its ru_maxrss is the program's
// own. Only the C library is used, to keep it small.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <cstdio>
#include <ctime>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

long long nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return T.tv_sec * 1000000000LL + T.tv_nsec;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: igen_child_probe <program> [args...]\n");
    return 2;
  }
  long long T0 = nowNs();
  pid_t Pid = fork();
  if (Pid < 0)
    return 1;
  if (Pid == 0) {
    int Null = open("/dev/null", O_WRONLY);
    dup2(Null, 1);
    dup2(Null, 2);
    execv(Argv[1], Argv + 1);
    _exit(127);
  }
  int Status = 0;
  rusage U{};
  while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
  }
  long long T1 = nowNs();
  std::printf("%d %ld %lld\n", WIFEXITED(Status) ? WEXITSTATUS(Status) : 128,
              U.ru_maxrss, T1 - T0);
  return 0;
}
