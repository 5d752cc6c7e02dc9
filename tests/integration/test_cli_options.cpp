// opalsim_cli's option handling, one table row per command line: each row
// runs the built binary in a child process and checks its exit status and
// what it prints.  Every flag is read before unknown ones are reported, so
// a documented flag is never called unknown, and an unknown one stops the
// run with exit 2 before it starts.  A configuration the library refuses
// (util::ConfigError) also exits 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace {

struct CliCase {
  const char* name;
  std::vector<std::string> args;
  int exit_code;
  std::vector<std::string> printed;      ///< must all appear
  std::vector<std::string> not_printed;  ///< must not appear
  std::string env = {};     ///< NAME=value prefix of the command line
  std::string writes = {};  ///< a file the run must write
};

/// Runs opalsim_cli with `args` under `env`; returns its exit status and
/// fills `out` with its stdout and stderr.
int run_cli(const std::string& env, const std::vector<std::string>& args,
            std::string& out) {
  std::string cmd = env + " '" OPALSIM_CLI "'";
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
      {"sd writes --metrics-out",
       {"--size", "small", "--method", "sd", "--servers", "2", "--steps", "1",
        "--metrics-out", "cli_sd_metrics.json"},
       0,
       {"platform:"},
       {"error:"},
       "",
       "cli_sd_metrics.json"},
      {"fd writes --trace-out",
       {"--size", "small", "--method", "fd", "--servers", "2", "--steps", "1",
        "--trace-out", "cli_fd_trace.json"},
       0,
       {"platform:"},
       {"error:"},
       "",
       "cli_fd_trace.json"},
      {"sd writes OPALSIM_METRICS",
       {"--size", "small", "--method", "sd", "--servers", "2", "--steps", "1"},
       0,
       {"platform:"},
       {"error:"},
       "OPALSIM_METRICS=cli_sd_env_metrics.json",
       "cli_sd_env_metrics.json"},
      // The values are the fault-free run's physics table.
      {"sd under every fault rate computes the fault-free physics",
       {"--size", "small", "--method", "sd", "--servers", "2", "--steps", "2",
        "--fault-seed", "4", "--loss-rate", "0.01", "--corrupt-rate", "0.01",
        "--dup-rate", "0.01", "--retry"},
       0,
       {"94913.903", "35.715", "10971929.498", "73.538", "-246.433321",
        "RPC retries"},
       {"error:"}},
      {"fd refuses a server kill",
       {"--size", "small", "--method", "fd", "--kill-server", "1",
        "--kill-step", "2"},
       2,
       {"[opal]", "force decomposition (FD): server kills and checkpoints"},
       {"vdW energy"}},
      {"sd refuses a checkpoint",
       {"--size", "small", "--method", "sd", "--checkpoint-out", "x.img"},
       2,
       {"[opal]", "space decomposition (SD): server kills and checkpoints"},
       {"vdW energy"}},
      {"an empty complex is refused",
       {"--solute", "0", "--water", "0"},
       2,
       {"[opal]", "make_synthetic_complex: empty complex"},
       {"platform:"}},
      // A fault rate is a probability: anything outside [0, 1], NaN
      // included, is refused by name before the run instead of running
      // fault-free or failing inside it.
      {"a fault rate above 1 is refused",
       {"--size", "small", "--loss-rate", "1.5"},
       2,
       {"--loss-rate must be in [0, 1], got 1.5"},
       {"platform:"}},
      {"a negative fault rate is refused",
       {"--size", "small", "--loss-rate", "-0.1"},
       2,
       {"--loss-rate must be in [0, 1], got -0.1"},
       {"platform:"}},
      {"a NaN fault rate is refused",
       {"--size", "small", "--loss-rate", "nan"},
       2,
       {"--loss-rate must be in [0, 1], got nan"},
       {"platform:"}},
      {"a NaN --dup-rate is refused",
       {"--size", "small", "--dup-rate", "nan"},
       2,
       {"--dup-rate must be in [0, 1], got nan"},
       {"platform:"}},
      {"a negative --corrupt-rate is refused",
       {"--size", "small", "--corrupt-rate", "-1"},
       2,
       {"--corrupt-rate must be in [0, 1], got -1"},
       {"platform:"}},
      {"fault rates summing past 1 are refused",
       {"--size", "small", "--loss-rate", "0.6", "--dup-rate", "0.5"},
       2,
       {"--loss-rate + --corrupt-rate + --dup-rate must be <= 1"},
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
    if (!c.writes.empty()) std::filesystem::remove(c.writes);
    std::string out;
    EXPECT_EQ(run_cli(c.env, c.args, out), c.exit_code) << out;
    if (!c.writes.empty()) {
      EXPECT_TRUE(std::filesystem::exists(c.writes)) << c.writes;
      std::filesystem::remove(c.writes);
    }
    for (const std::string& s : c.printed) {
      EXPECT_NE(out.find(s), std::string::npos) << "missing '" << s << "'";
    }
    for (const std::string& s : c.not_printed) {
      EXPECT_EQ(out.find(s), std::string::npos) << "unexpected '" << s << "'";
    }
  }
}

}  // namespace
