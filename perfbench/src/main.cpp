// perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--scratch <dir>]
//
// Runs one workload (workloads.hpp) and prints the per-metric lines
// followed by the JSON result line.  Exits 1 when a correctness check
// failed and 2 on a usage error.  It has no deadline of its own: run.py
// kills it if a hung rank keeps it from ending.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_e2e: " << why
            << "\nusage: perfbench_e2e --workload <serial_cached|"
               "inproc4_cached|tcp4_twophase|serve_jobs> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  opt.scratch = ".";
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (key == "--scratch") {
        opt.scratch = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report rep;
  try {
    if (opt.workload == "serial_cached") {
      perfbench::run_serial_cached(opt, rep);
    } else if (opt.workload == "inproc4_cached") {
      perfbench::run_parallel(opt, rep, /*tcp=*/false);
    } else if (opt.workload == "tcp4_twophase") {
      perfbench::run_parallel(opt, rep, /*tcp=*/true);
    } else if (opt.workload == "serve_jobs") {
      perfbench::run_serve_jobs(opt, rep);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    rep.operation(true, std::string("run aborted: ") + e.what());
  }
  rep.print();
  return rep.failed() == 0 ? 0 : 1;
}
