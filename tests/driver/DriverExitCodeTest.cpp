//===- DriverExitCodeTest.cpp - igen CLI exit-code contract ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The driver promises distinct exit codes per failure class (usage 2,
// parse 3, sema 4, I/O 6, success 0; 1 is deliberately unused so an
// uncaught crash is distinguishable from a clean diagnostic). Scripts
// and the differential fuzzers rely on this contract, so it gets pinned
// by shelling out to the real binary (path injected by CMake as
// IGEN_DRIVER_PATH).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace {

/// Runs the driver with \p Args appended, stdout/stderr discarded;
/// returns the exit status (-1 if it did not exit normally).
int runDriver(const std::string &Args) {
  std::string Cmd = std::string(IGEN_DRIVER_PATH) + " " + Args +
                    " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// Writes \p Text to a fresh file under the test temp dir.
std::string writeTemp(const char *Name, const std::string &Text) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream Out(Path);
  Out << Text;
  return Path;
}

TEST(DriverExitCode, SuccessIsZero) {
  std::string In =
      writeTemp("ok.c", "double f(double x) { return x * 2.0; }\n");
  std::string Out = std::string(::testing::TempDir()) + "igen_ok_out.c";
  EXPECT_EQ(runDriver(In + " -o " + Out), 0);
}

TEST(DriverExitCode, UsageErrorsAreTwo) {
  EXPECT_EQ(runDriver(""), 2);                   // no input
  EXPECT_EQ(runDriver("--bogus-flag in.c"), 2);  // unknown option
  EXPECT_EQ(runDriver("--precision=half in.c"), 2);
  EXPECT_EQ(runDriver("-o"), 2);                 // missing -o argument
  EXPECT_EQ(runDriver("a.c b.c"), 2);            // multiple inputs
}

TEST(DriverExitCode, ParseErrorsAreThree) {
  std::string In =
      writeTemp("parse_err.c", "double f(double x) { return x + ; }\n");
  EXPECT_EQ(runDriver(In), 3);
  EXPECT_EQ(runDriver("--dump-ast " + In), 3);
}

TEST(DriverExitCode, SemaErrorsAreFour) {
  std::string In = writeTemp("sema_err.c",
                             "double f(double x) { return x + y; }\n");
  EXPECT_EQ(runDriver(In), 4);
  EXPECT_EQ(runDriver("--dump-ast " + In), 4);
}

TEST(DriverExitCode, IoErrorsAreSix) {
  EXPECT_EQ(runDriver("/nonexistent/igen/input.c"), 6); // unreadable in
  std::string In =
      writeTemp("io_ok.c", "double f(double x) { return x; }\n");
  EXPECT_EQ(runDriver(In + " -o /nonexistent/dir/out.c"), 6);
}

TEST(DriverExitCode, MultipleParseErrorsStillExitThree) {
  // Error recovery reports several diagnostics but the process exit
  // class stays "parse error".
  std::string In = writeTemp("parse_multi.c",
                             "double f(double x) {\n"
                             "  double a = ;\n"
                             "  double b = ;\n"
                             "  return x;\n"
                             "}\n");
  EXPECT_EQ(runDriver(In), 3);
}

TEST(DriverExitCode, LexicalErrorsAreParseErrors) {
  // A character that starts no token fails the parse stage, also when
  // the rest of the file parses, and 50 000 of them in a row neither
  // overflow the lexer's stack nor change the exit class.
  std::string In = writeTemp("lex_err.c",
                             "double f(double x) { return x; } @\n");
  EXPECT_EQ(runDriver(In), 3);
  std::string Flood = writeTemp("lex_flood.c", std::string(50000, '@'));
  EXPECT_EQ(runDriver(Flood), 3);
}

TEST(DriverExitCode, HardenFlagAccepted) {
  std::string In =
      writeTemp("harden_in.c", "double f(double x) { return x + 1.0; }\n");
  std::string Out =
      std::string(::testing::TempDir()) + "igen_harden_out.c";
  ASSERT_EQ(runDriver("--harden " + In + " -o " + Out), 0);
  // The hardened output must reference the sentinel header.
  std::ifstream Gen(Out);
  std::string Text((std::istreambuf_iterator<char>(Gen)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("harden/igen_fenv.h"), std::string::npos);
  EXPECT_NE(Text.find("igen_fenv_check"), std::string::npos);
}

} // namespace
