//===- KnobOwnerTest.cpp - The knob table is the only knob owner ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The IGEN_* knob table (src/support/Knobs.h) owns every environment
// variable. This test reads the source tree (path injected by CMake as
// IGEN_SOURCE_DIR) and the real driver's --help (IGEN_DRIVER_PATH), and
// fails when
//  * a file under src/ other than the table module calls getenv, or
//  * README's Environment table or the environment section of
//    `igen --help` lists a knob or default the table lacks, or misses
//    one the table has.
//
//===----------------------------------------------------------------------===//

#include "support/Knobs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

using namespace igen;

namespace {

namespace fs = std::filesystem;

using KnobDefaults = std::map<std::string, std::string>; // name -> default

std::string readFile(const fs::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

KnobDefaults tableDefaults() {
  KnobDefaults Out;
  for (unsigned K = 0; K < NumKnobs; ++K)
    Out[knobInfo(static_cast<Knob>(K)).Name] =
        knobDefaultText(static_cast<Knob>(K));
  return Out;
}

TEST(KnobOwner, OnlyTheTableModuleCallsGetenv) {
  const fs::path Src = fs::path(IGEN_SOURCE_DIR) / "src";
  const fs::path Owner = Src / "support" / "Knobs.cpp";
  const std::regex Call(R"(getenv\s*\()");
  size_t Scanned = 0;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(Src)) {
    std::string Ext = E.path().extension().string();
    if (!E.is_regular_file() ||
        (Ext != ".h" && Ext != ".cpp" && Ext != ".c" && Ext != ".inc"))
      continue;
    ++Scanned;
    if (E.path() == Owner)
      continue;
    EXPECT_FALSE(std::regex_search(readFile(E.path()), Call))
        << E.path() << " calls getenv; read the knob through support/Knobs.h";
  }
  EXPECT_GT(Scanned, 100u) << "source tree not found under " << Src;
  EXPECT_TRUE(std::regex_search(readFile(Owner), Call));
}

/// The cells of a Markdown table row, trimmed and without surrounding
/// backticks; escaped pipes (\|) stay inside their cell.
std::vector<std::string> cells(const std::string &Row) {
  std::vector<std::string> Out;
  std::string Cell;
  for (size_t I = 1; I < Row.size(); ++I) {
    if (Row[I] == '|' && Row[I - 1] != '\\') {
      size_t B = Cell.find_first_not_of(" `");
      size_t E = Cell.find_last_not_of(" `");
      Out.push_back(B == std::string::npos ? "" : Cell.substr(B, E - B + 1));
      Cell.clear();
    } else {
      Cell += Row[I];
    }
  }
  return Out;
}

TEST(KnobOwner, ReadmeEnvironmentTableMatchesTheTable) {
  std::string Readme = readFile(fs::path(IGEN_SOURCE_DIR) / "README.md");
  size_t Start = Readme.find("\n## Environment\n");
  ASSERT_NE(Start, std::string::npos) << "README has no Environment section";
  size_t End = Readme.find("\n## ", Start + 1);
  std::istringstream Section(Readme.substr(Start, End - Start));
  // | `IGEN_X` | accepted values | default | purpose |
  KnobDefaults Listed;
  for (std::string Line; std::getline(Section, Line);) {
    if (Line.rfind("| `IGEN_", 0) != 0)
      continue;
    std::vector<std::string> C = cells(Line);
    ASSERT_EQ(C.size(), 4u) << Line;
    EXPECT_TRUE(Listed.emplace(C[0], C[2]).second) << C[0] << " listed twice";
  }
  EXPECT_EQ(Listed, tableDefaults());
}

TEST(KnobOwner, HelpEnvironmentSectionMatchesTheTable) {
  std::string Cmd = std::string(IGEN_DRIVER_PATH) + " --help 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Help;
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), P)) > 0;)
    Help.append(Buf, N);
  ASSERT_EQ(::pclose(P), 0) << Help;

  size_t Start = Help.find("\nenvironment");
  ASSERT_NE(Start, std::string::npos) << Help;
  std::istringstream Section(Help.substr(Start));
  //   IGEN_X                 default: <default>
  const std::regex Row(R"(^  (IGEN_[A-Z_]+) +default: (.*)$)");
  KnobDefaults Listed;
  std::smatch M;
  for (std::string Line; std::getline(Section, Line);) {
    if (std::regex_match(Line, M, Row)) {
      EXPECT_TRUE(Listed.emplace(M[1], M[2]).second)
          << M[1] << " listed twice";
    }
  }
  EXPECT_EQ(Listed, tableDefaults());
}

} // namespace
