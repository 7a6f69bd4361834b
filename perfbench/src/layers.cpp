#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// Slack for span containment: merged traces are re-based by a per-lane
// clock offset, which can round a child's end past its parent's.
constexpr double kSlackUs = 0.01;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string layer_of(const std::string& span_name) {
  if (span_name == "step") return "engines.step";
  if (span_name == "force") return "engines.force";
  if (span_name == "fold") return "engines.fold";
  if (starts_with(span_name, "integrate.")) return "md.integrate";
  if (span_name == "binning") return "cell.binning";
  if (starts_with(span_name, "search."))
    return "tuples.build." + span_name.substr(7);
  if (span_name == "refresh") return "tuples.refresh";
  if (starts_with(span_name, "replay."))
    return "kernels.replay." + span_name.substr(7);
  if (starts_with(span_name, "exchange.")) return span_name;
  if (span_name == "balance") return "balance.rebalance";
  if (span_name == "ckpt.snapshot") return "ckpt.snapshot";
  return "other." + span_name;
}

std::vector<LaneTable> exclusive_tables(
    const std::vector<scmd::obs::TraceEvent>& events) {
  std::map<int, std::vector<const scmd::obs::TraceEvent*>> lanes;
  for (const scmd::obs::TraceEvent& e : events) lanes[e.tid].push_back(&e);

  std::vector<LaneTable> tables;
  for (auto& [tid, evs] : lanes) {
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;  // parent before a child starting with it
    });
    LaneTable t;
    t.lane = tid;
    double win_lo = 0.0, win_hi = 0.0;
    for (const auto* e : evs) {
      if (e->name != "step") continue;
      if (t.steps == 0) win_lo = e->ts_us;
      win_hi = std::max(win_hi, e->ts_us + e->dur_us);
      ++t.steps;
    }
    if (t.steps == 0) continue;
    t.window_us = win_hi - win_lo;
    for (const auto* e : evs) {
      if (e->ts_us >= win_lo) break;
      if (e->name == "force") {
        t.prime_us = e->dur_us;
        break;
      }
    }

    struct Open {
      const scmd::obs::TraceEvent* e;
      double child_us;
    };
    std::vector<Open> stack;
    double top_level_us = 0.0;
    auto close = [&t](const Open& o) {
      t.self_us[layer_of(o.e->name)] += o.e->dur_us - o.child_us;
    };
    for (const auto* e : evs) {
      if (e->ts_us < win_lo - kSlackUs ||
          e->ts_us + e->dur_us > win_hi + kSlackUs)
        continue;
      while (!stack.empty() &&
             stack.back().e->ts_us + stack.back().e->dur_us <=
                 e->ts_us + kSlackUs) {
        close(stack.back());
        stack.pop_back();
      }
      if (stack.empty()) {
        top_level_us += e->dur_us;
        if (e->name == "ckpt.snapshot") t.snapshot_us.push_back(e->dur_us);
      } else {
        stack.back().child_us += e->dur_us;
      }
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
    t.unattributed_us = t.window_us - top_level_us;
    tables.push_back(std::move(t));
  }
  return tables;
}

void LayerTotals::add(const std::vector<LaneTable>& tables) {
  double prime = 0.0;
  for (const LaneTable& t : tables) {
    lane_steps += t.steps;
    window_us += t.window_us;
    unattributed_us += t.unattributed_us;
    for (const auto& [row, us] : t.self_us) self_us[row] += us;
    prime = std::max(prime, t.prime_us);
    if (t.lane == 0)
      snapshot_us.insert(snapshot_us.end(), t.snapshot_us.begin(),
                         t.snapshot_us.end());
  }
  if (!tables.empty()) prime_us.push_back(prime);
}

double LayerTotals::ms_per_step(const std::string& prefix) const {
  if (lane_steps == 0) return 0.0;
  double us = 0.0;
  for (const auto& [row, v] : self_us) {
    if (row.rfind(prefix, 0) == 0) us += v;
  }
  return us / 1000.0 / static_cast<double>(lane_steps);
}

std::vector<std::string> LayerTotals::lines() const {
  std::vector<std::string> out;
  if (lane_steps == 0) return out;
  const double per = 1000.0 * static_cast<double>(lane_steps);
  char buf[160];
  auto row = [&](const std::string& name, double us) {
    std::snprintf(buf, sizeof buf, "  %-28s %10.4f ms/step %6.1f%%",
                  name.c_str(), us / per, 100.0 * us / window_us);
    out.emplace_back(buf);
  };
  out.emplace_back("exclusive time per rank per traced step (" +
                   std::to_string(lane_steps) + " rank-steps):");
  double sum = 0.0;
  for (const auto& [name, us] : self_us) {
    row(name, us);
    sum += us;
  }
  row("unattributed", unattributed_us);
  sum += unattributed_us;
  row("= sum of rows", sum);
  row("traced step time", window_us);
  return out;
}

}  // namespace perfbench
