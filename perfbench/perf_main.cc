// fo2dt_perf: the benchmark's executable.
//
//   fo2dt_perf gen --workload W --seed S --count N
//       prints the first N requests of workload W's stream (perf.h format)
//   fo2dt_perf drive --socket PATH --requests FILE --out FILE --conns N
//                    --seconds T [--open --rate R --seed S]
//       drives a running fo2dtd (drive.cc)
//   fo2dt_perf replay --requests FILE --count N --spans FILE --inproc FILE
//       replays the requests in-process and prints per-layer metrics
//       (replay.cc)
//
// perfbench/run.py runs these subcommands.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "perf.h"
#include "workloads.h"

namespace fo2dt::perfbench {

bool ReadRequestFile(const std::string& path, std::vector<RequestRecord>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string text;
  while (std::getline(in, text)) {
    RequestRecord r;
    size_t pos = 0;
    std::string fields[4];
    for (std::string& f : fields) {
      size_t tab = text.find('\t', pos);
      if (tab == std::string::npos) return false;
      f = text.substr(pos, tab - pos);
      pos = tab + 1;
    }
    r.index = std::strtoull(fields[0].c_str(), nullptr, 10);
    r.conn = std::strtoull(fields[1].c_str(), nullptr, 10);
    r.expect = fields[2];
    r.family = fields[3];
    r.line = text.substr(pos);
    out->push_back(std::move(r));
  }
  return true;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fo2dt_perf gen --workload W --seed S --count N\n"
               "       fo2dt_perf drive --socket P --requests F --out F "
               "--conns N --seconds T [--open --rate R --seed S]\n"
               "       fo2dt_perf replay --requests F --count N --spans F "
               "--inproc F\n");
  return 2;
}

/// --key value pairs (and bare --flags, stored as "1").
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      (*out)[key] = argv[++i];
    } else {
      (*out)[key] = "1";
    }
  }
  return true;
}

int Gen(const std::map<std::string, std::string>& flags) {
  if (!flags.count("workload") || !flags.count("seed") || !flags.count("count")) {
    return Usage();
  }
  const std::string workload = flags.at("workload");
  const uint64_t seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  const size_t count = std::strtoull(flags.at("count").c_str(), nullptr, 10);
  for (const BenchRequest& r : GenerateWorkload(workload, seed, count)) {
    std::printf("%zu\t%zu\t%s\t%s\t%s\n", r.index, r.conn, r.expect.c_str(),
                r.family.c_str(), RequestLine(r, seed).c_str());
  }
  return std::fflush(stdout) == 0 ? 0 : 1;
}

int Drive(const std::map<std::string, std::string>& flags) {
  DriveOptions opt;
  if (!flags.count("socket") || !flags.count("requests") || !flags.count("out")) {
    return Usage();
  }
  opt.socket_path = flags.at("socket");
  opt.requests_path = flags.at("requests");
  opt.out_path = flags.at("out");
  if (flags.count("conns")) opt.conns = std::strtoull(flags.at("conns").c_str(), nullptr, 10);
  if (flags.count("seconds")) opt.seconds = std::atof(flags.at("seconds").c_str());
  if (flags.count("open")) opt.open_loop = true;
  if (flags.count("rate")) opt.rate = std::atof(flags.at("rate").c_str());
  if (flags.count("seed")) opt.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  if (opt.conns == 0 || opt.seconds <= 0 || (opt.open_loop && opt.rate <= 0)) {
    return Usage();
  }
  return RunDrive(opt);
}

int Replay(const std::map<std::string, std::string>& flags) {
  ReplayOptions opt;
  if (!flags.count("requests") || !flags.count("count") || !flags.count("spans") ||
      !flags.count("inproc")) {
    return Usage();
  }
  opt.requests_path = flags.at("requests");
  opt.count = std::strtoull(flags.at("count").c_str(), nullptr, 10);
  opt.spans_path = flags.at("spans");
  opt.inproc_path = flags.at("inproc");
  return RunReplay(opt);
}

}  // namespace
}  // namespace fo2dt::perfbench

int main(int argc, char** argv) {
  using namespace fo2dt::perfbench;
  if (argc < 2) return Usage();
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return Gen(flags);
    if (cmd == "drive") return Drive(flags);
    if (cmd == "replay") return Replay(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fo2dt_perf %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  return Usage();
}
