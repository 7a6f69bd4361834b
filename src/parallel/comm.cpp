#include "parallel/comm.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "support/thread_safety.hpp"

namespace scmd {

void run_cluster(int num_ranks, const std::function<void(Comm&)>& fn) {
  Cluster cluster(num_ranks);
  Mutex m;
  std::exception_ptr first;  // guarded by m
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm comm(cluster, r);
        fn(comm);
      } catch (...) {
        {
          MutexLock lk(m);
          if (!first) first = std::current_exception();
        }
        // Wake peers blocked on this rank; their follow-on errors lose
        // the race above, so the root cause is what propagates.
        cluster.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace scmd
