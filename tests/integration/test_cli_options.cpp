// opalsim_cli's option handling, one table row per command line: each row
// runs the built binary in a child process and checks its exit status and
// what it prints.  Every flag is read before unknown ones are reported, so
// a documented flag is never called unknown, and an unknown one stops the
// run with exit 2 before it starts.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

struct CliCase {
  const char* name;
  std::vector<std::string> args;
  int exit_code;
  std::vector<std::string> printed;      ///< must all appear
  std::vector<std::string> not_printed;  ///< must not appear
};

/// Runs opalsim_cli with `args`; returns its exit status and fills `out`
/// with its stdout and stderr.
int run_cli(const std::vector<std::string>& args, std::string& out) {
  std::string cmd = "'" OPALSIM_CLI "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliOptions, ExitStatusAndMessages) {
  const CliCase cases[] = {
      {"unknown option", {"--bogus"}, 2, {"unknown option --bogus"},
       {"platform:"}},
      {"every unknown option is named",
       {"--servers", "3", "--bogus", "--typo", "4"},
       2,
       {"unknown option --bogus", "unknown option --typo"},
       {"platform:"}},
      {"--predict is known",
       {"--size", "small", "--servers", "2", "--steps", "1", "--predict"},
       0,
       {"analytic model prediction"},
       {"unknown option"}},
      {"--water without --solute",
       {"--size", "small", "--water", "10"},
       2,
       {"--water needs --solute"},
       {"platform:", "unknown option"}},
      {"--help prints usage", {"--help"}, 2, {"usage:"}, {"unknown option"}},
      {"a positional argument is refused",
       {"stray", "--size", "small"},
       2,
       {"unexpected argument 'stray'"},
       {"platform:"}},
      {"unknown --method value",
       {"--size", "small", "--method", "xd"},
       2,
       {"unknown --method 'xd'"},
       {"platform:"}},
      {"unknown --strategy value",
       {"--size", "small", "--strategy", "random"},
       2,
       {"unknown --strategy 'random'"},
       {"platform:"}},
      {"unknown --size value",
       {"--size", "huge"},
       2,
       {"unknown --size 'huge'"},
       {"platform:"}},
      {"every bad value is named",
       {"--size", "tiny", "--method", "md", "--strategy", "x"},
       2,
       {"unknown --size 'tiny'", "unknown --method 'md'",
        "unknown --strategy 'x'"},
       {"platform:"}},
      {"sd refuses --metrics-out",
       {"--size", "small", "--method", "sd", "--metrics-out", "m.json"},
       2,
       {"--metrics-out is only implemented"},
       {"platform:"}},
      {"fd refuses --trace-out",
       {"--size", "small", "--method", "fd", "--trace-out", "t.json"},
       2,
       {"--trace-out is only implemented"},
       {"platform:"}},
      {"sd refuses every fault rate",
       {"--size", "small", "--method", "sd", "--loss-rate", "0.1",
        "--corrupt-rate", "0.01", "--dup-rate", "0.01"},
       2,
       {"--loss-rate is only implemented", "--corrupt-rate is only implemented",
        "--dup-rate is only implemented"},
       {"platform:"}},
      {"fd refuses a server kill",
       {"--size", "small", "--method", "fd", "--kill-server", "1",
        "--kill-step", "2"},
       2,
       {"--kill-server is only implemented", "--kill-step is only implemented"},
       {"platform:"}},
      {"sd runs with its own flags",
       {"--size", "small", "--method", "sd", "--servers", "2", "--steps", "1",
        "--cutoff", "10", "--strategy", "folded"},
       0,
       {"platform:"},
       {"error:"}},
  };
  for (const CliCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::string out;
    EXPECT_EQ(run_cli(c.args, out), c.exit_code) << out;
    for (const std::string& s : c.printed) {
      EXPECT_NE(out.find(s), std::string::npos) << "missing '" << s << "'";
    }
    for (const std::string& s : c.not_printed) {
      EXPECT_EQ(out.find(s), std::string::npos) << "unexpected '" << s << "'";
    }
  }
}

}  // namespace
