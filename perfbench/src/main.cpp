// perfbench: the repository benchmark. One run drives one named workload
// on the real backends (never the simulator) with inputs made from
// --seed, checks every output against the protocol's properties and its
// own counts, and prints one JSON result as its last line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the same two parts, sized differently: a vc-only
// collection cluster under load, which gives the receipt-path metrics, and
// full elections on ThreadNet run to their audited result, which give the
// setup, tally and audit metrics. So every end-to-end metric exists on
// every workload.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "measure.hpp"
#include "runners.hpp"
#include "trace.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Workload {
  const char* name;
  const char* backend;
  CollectionConfig collection;  // the receipt-path cluster
  ElectionConfig election;
  std::size_t rounds = 1;  // full elections per run
};

// A full election every cast workload closes with: the m=2 referendum of
// the collection cluster, small enough to repeat five times for medians.
ElectionConfig closing_election() {
  ElectionConfig e;
  e.m = 2;
  e.n_ballots = 48;
  e.casts = 36;  // 75% turnout: unvoted ballots take the open-both path
  e.in_flight = 16;
  e.voting_s = 0.4;
  e.audit_passes = 3;
  e.audit_window_s = 0.6;  // ~0.1 s passes: a median over ~6 per election
  return e;
}

std::optional<Workload> make_workload(const std::string& name, double seconds,
                                      std::size_t cores) {
  Workload w{};
  w.name = nullptr;
  if (name == "cast-threads") {
    CollectionConfig c;
    c.tcp = false;
    c.m = 2;
    // 16 in flight saturate four cores (~10 ms of CPU per receipt at ~350
    // receipts/s); 32 or 64 give the same rate with more queueing, and at
    // 64 the p99 swung 330-700 ms between runs.
    c.load.in_flight = 16;
    c.warmup_s = 1;
    c.load.window_s = c.warmup_s + seconds;
    c.load.patience_s = 0;  // ThreadNet loses nothing: no resubmissions
    // Room for ~4x today's capacity; running out closes the window early.
    c.n_ballots = static_cast<std::size_t>(std::ceil(seconds * 1500));
    w = Workload{"cast-threads", "threadnet", c, closing_election(), 5};
  } else if (name == "cast-tcp-wal") {
    CollectionConfig c;
    c.tcp = true;
    c.m = 2;
    // About a third of the receipts/s this cluster sustains in closed
    // loop; at half (175/s) p50 spread 0.31 of its median over ten runs.
    c.load.rate_per_s = 110;
    c.warmup_s = 1;
    c.load.window_s = c.warmup_s + seconds;
    c.load.patience_s = 1;
    c.n_ballots =
        static_cast<std::size_t>(std::ceil(c.load.window_s * c.load.rate_per_s)) +
        100;
    // Every record is appended before the node acts on it; flushing is
    // left to the OS. With fsync on every record the cast latency on a
    // shared virtual disk drifted 5-18 ms (p50) between consecutive runs,
    // too wide for any bound; store.wal_append_sync_us keeps the fsync cost
    // in the traced run.
    c.wal_fsync = ddemos::store::FsyncPolicy::kNever;
    w = Workload{"cast-tcp-wal", "tcpnet+wal", c, closing_election(), 5};
  } else if (name == "tally-audit") {
    // The elections cast too few votes for steady cast metrics, so a short
    // m=4 collection cluster supplies them.
    CollectionConfig c;
    c.tcp = false;
    c.m = 4;
    c.load.in_flight = 8;
    c.warmup_s = 1;
    c.load.window_s = c.warmup_s + seconds / 4;
    c.load.patience_s = 0;
    c.n_ballots = static_cast<std::size_t>(std::ceil(c.load.window_s * 1500));
    ElectionConfig e;
    e.m = 4;
    e.n_ballots = 64;
    e.casts = 48;  // 75% turnout
    e.in_flight = 16;
    e.voting_s = 1.0;
    e.audit_passes = 3;
    e.audit_window_s = seconds / 8;  // two rounds: a quarter of the run
    w = Workload{"tally-audit", "threadnet", c, e, 2};
  } else {
    return std::nullopt;
  }
  w.election.audit_threads = cores;
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cast-threads|cast-tcp-wal|"
               "tally-audit> --seed <n> --seconds <s> --trace <0|1>\n");
  return 64;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      return std::nullopt;
    }
    if (end && *end) return std::nullopt;
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0)) return std::nullopt;
  return a;
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<MetricOut>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
    s += buf;
  }
  s += "}}";
  return s;
}

double per(double total, double count) { return count > 0 ? total / count : 0; }

// Removes the run's scratch directory (WAL files) however the run ends.
struct RunDir {
  fs::path path;
  explicit RunDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
};

int run_benchmark(const Args* args, const Workload* wl, std::size_t cores) {
  const fs::path out_dir = fs::absolute(".perfbench_out");
  fs::create_directories(out_dir);
  RunDir scratch(out_dir / ("run-" + std::to_string(::getpid())));
  const fs::path& run_dir = scratch.path;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "backend=%s cores=%zu\n",
              wl->name, static_cast<unsigned long long>(args->seed),
              args->seconds, args->trace ? 1 : 0, wl->backend, cores);
  {
    const CollectionConfig& c = wl->collection;
    if (c.load.in_flight) {
      std::printf("# offered load: closed loop, %zu casts in flight, "
                  "%zu ballots, m=%zu\n", c.load.in_flight, c.n_ballots, c.m);
    } else {
      std::printf("# offered load: open loop, %.0f casts/s at seeded random "
                  "times, patience %.1f s, WAL fsync=never, %zu ballots, "
                  "m=%zu\n",
                  c.load.rate_per_s, c.load.patience_s, c.n_ballots, c.m);
    }
  }
  const ElectionConfig& ec = wl->election;
  std::printf("# elections: %zu x {m=%zu, %zu ballots, %zu cast in closed "
              "loop at %zu in flight, audit at %zu threads}\n",
              wl->rounds, ec.m, ec.n_ballots, ec.casts, ec.in_flight, cores);
  std::fflush(stdout);

  Tracer collection_tracer, election_tracer;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  auto check = [&](std::size_t ops, std::size_t bad, const char* what) {
    attempted += ops;
    failed += bad;
    if (bad) {
      correct = false;
      std::printf("# CHECK FAILED: %s (%zu of %zu)\n", what, bad, ops);
    }
  };
  auto check_casts = [&](const ClientResult& c, const char* where) {
    // Every cast serial is receipted exactly once with its printed
    // receipt; answers to resubmits must repeat that receipt.
    std::size_t missing = c.attempted - c.receipted;
    check(c.attempted, missing, where);
    if (c.bad_replies) {
      correct = false;
      std::printf("# CHECK FAILED: %s: %zu rejected or wrong receipts\n",
                  where, c.bad_replies);
    }
  };

  CollectionConfig c = wl->collection;
  c.seed = args->seed;
  c.load.seed = args->seed;
  if (c.tcp) {
    c.wal_dir = (run_dir / "wal").string();
    fs::create_directories(c.wal_dir);
  }
  const CollectionResult col =
      run_collection(c, args->trace ? &collection_tracer : nullptr);
  check_casts(col.client, "collection casts");
  if (!col.completed) {
    correct = false;
    std::printf("# CHECK FAILED: collection did not drain\n");
  }
  if (col.client.exhausted) {
    std::printf("# note: ballots ran out before the window closed\n");
  }

  std::vector<ElectionResult> elections;
  for (std::size_t round = 0; round < wl->rounds; ++round) {
    ElectionConfig e = wl->election;
    e.seed = args->seed * 1000 + round;
    elections.push_back(
        run_election(e, args->trace ? &election_tracer : nullptr));
    const ElectionResult& r = elections.back();
    std::printf("# election %zu: setup %.3f s, %zu casts, p50 %.2f ms, "
                "max %.2f ms, tally %.3f s, audit %.3f s x %zu\n",
                round, r.setup_s, r.client.latency_ms.size(),
                median(r.client.latency_ms),
                quantile(r.client.latency_ms, 1.0), r.tally_s,
                median(r.audit_pass_s), r.audit_pass_s.size());
    check_casts(r.client, "election casts");
    // The tally check: every BB publishes the benchmark's own count.
    check(1, r.completed && r.bbs_agreeing == 3 ? 0 : 1,
          "published tally equals the receipted casts on every BB");
    check(r.audit_pass_s.size(), r.audit_failures, "audit passes");
  }
  std::vector<double> audit_s;
  for (const ElectionResult& r : elections) {
    audit_s.insert(audit_s.end(), r.audit_pass_s.begin(), r.audit_pass_s.end());
  }

  // --- end-to-end -----------------------------------------------------------
  // Cast metrics cover the collection's measured window only: casts
  // started in the warm-up or in the final drain are left out, and the
  // receipt rate is the receipts that arrived inside the window over its
  // length. The latency percentiles are medians over the window's
  // segments of at least 1000 casts each (up to four): one burst of
  // scheduler or disk stalls then moves one segment's p99, not the run's.
  const CollectionConfig& cc = wl->collection;
  const ClientResult& cr = col.client;
  const double from_s = cc.warmup_s, to_s = cc.load.window_s;
  double receipts = 0;
  std::vector<double> latency;
  std::vector<std::pair<double, double>> timed;  // (start, latency)
  for (std::size_t i = 0; i < cr.latency_ms.size(); ++i) {
    if (cr.start_s[i] >= from_s && cr.start_s[i] < to_s) {
      latency.push_back(cr.latency_ms[i]);
      timed.emplace_back(cr.start_s[i], cr.latency_ms[i]);
    }
    if (cr.receipt_s[i] >= from_s && cr.receipt_s[i] < to_s) receipts += 1;
  }
  const std::size_t segments =
      std::clamp<std::size_t>(latency.size() / 1000, 1, 4);
  auto segmented = [&](double q) {
    std::vector<double> per_segment;
    const double len = (to_s - from_s) / static_cast<double>(segments);
    for (std::size_t k = 0; k < segments; ++k) {
      std::vector<double> seg;
      for (const auto& [start, ms] : timed) {
        auto idx = static_cast<std::size_t>((start - from_s) / len);
        if (std::min(idx, segments - 1) == k) seg.push_back(ms);
      }
      per_segment.push_back(quantile(seg, q));
    }
    return median(per_segment);
  };
  std::vector<int> per_second;
  for (double t : cr.receipt_s) {
    auto sec = static_cast<std::size_t>(t);
    if (sec >= per_second.size()) per_second.resize(sec + 1, 0);
    ++per_second[sec];
  }
  std::printf("# receipts per second of the collection window:");
  for (int n : per_second) std::printf(" %d", n);
  std::printf("\n");
  std::vector<double> setups, tallies, consensus, push, publish, reads;
  for (const ElectionResult& r : elections) {
    setups.push_back(r.setup_s);
    tallies.push_back(r.tally_s);
    consensus.push_back(r.consensus_s);
    push.push_back(r.push_s);
    publish.push_back(r.publish_s);
    reads.push_back(r.audit_read_s);
  }
  double setup_s = median(setups) + median(col.setup_s);
  double peak_rss = std::max(self_peak_rss_mb(), col.peak_rss_mb);

  std::vector<MetricOut> e2e = {
      {"receipts_per_s", per(receipts, to_s - from_s), "1/s"},
      {"cpu_ms_per_receipt",
       per(col.window_cpu_s * 1e3, static_cast<double>(cr.receipted)), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"setup_s", setup_s, "s"},
      {"tally_s", median(tallies), "s"},
      {"audit_ballots_per_s",
       per(static_cast<double>(ec.n_ballots), median(audit_s)), "1/s"},
  };
  std::printf("# casts: %zu latency samples in %zu segments\n",
              latency.size(), segments);
  for (const MetricOut& m : e2e) {
    std::printf("# e2e %s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::vector<MetricOut> layer;
  if (args->trace) {
    // VC, store and mailbox layers come from the collection cluster when
    // it runs on ThreadNet. TcpNet's VCs live in node processes the
    // decorators cannot reach, so there they come from the run's ThreadNet
    // elections. Event counts and the load generator's figures always
    // come from the collection cluster.
    const bool vc_from_col = !wl->collection.tcp;
    const Tracer& rp = vc_from_col ? collection_tracer : election_tracer;
    const double col_receipts = static_cast<double>(col.client.receipted);
    double rp_receipts = col_receipts;
    if (!vc_from_col) {
      rp_receipts = 0;
      for (const ElectionResult& r : elections) {
        rp_receipts += static_cast<double>(r.client.receipted);
      }
    }
    LayerTotals t = rp.totals();
    auto handler_us = [&](ddemos::core::MsgType type) {
      auto it = t.handler_ns.find(type);
      return per(it == t.handler_ns.end() ? 0.0 : it->second / 1e3,
                 rp_receipts);
    };
    double all_ns = 0, all_msgs = 0;
    for (const auto& [type, ns] : t.handler_ns) all_ns += static_cast<double>(ns);
    for (const auto& [type, n] : t.handler_count) all_msgs += static_cast<double>(n);
    std::vector<double> waits;
    waits.reserve(t.mailbox_wait_ns.size());
    for (std::int64_t w : t.mailbox_wait_ns) waits.push_back(w / 1e3);

    std::map<std::string, double> micro =
        micro_timings(elections.front(), run_dir.string(), args->seed);
    const ClientResult& lc = col.client;
    using ddemos::core::MsgType;
    layer = {
        {"ea.setup_ms_per_ballot",
         median(setups) * 1e3 / static_cast<double>(ec.n_ballots), "ms"},
        {"crypto.schnorr_sign_us", micro["crypto.schnorr_sign_us"], "us"},
        {"crypto.schnorr_verify_us", micro["crypto.schnorr_verify_us"], "us"},
        {"crypto.shamir_reconstruct_us", micro["crypto.shamir_reconstruct_us"],
         "us"},
        {"crypto.vote_code_hash_us", micro["crypto.vote_code_hash_us"], "us"},
        {"crypto.ec_mul_us", micro["crypto.ec_mul_us"], "us"},
        {"crypto.vss_verify_batch_us_per_share",
         micro["crypto.vss_verify_batch_us_per_share"], "us"},
        {"crypto.bit_proof_batch_us", micro["crypto.bit_proof_batch_us"], "us"},
        {"vc.vote_us_per_receipt", handler_us(MsgType::kVote), "us"},
        {"vc.endorse_us_per_receipt", handler_us(MsgType::kEndorse), "us"},
        {"vc.endorsement_us_per_receipt", handler_us(MsgType::kEndorsement),
         "us"},
        {"vc.vote_p_us_per_receipt", handler_us(MsgType::kVoteP), "us"},
        {"vc.handler_us_per_receipt", per(all_ns / 1e3, rp_receipts), "us"},
        {"vc.msgs_per_receipt", per(all_msgs, rp_receipts), "count"},
        {"store.lookup_us",
         per(static_cast<double>(t.lookup_ns) / 1e3,
             static_cast<double>(t.lookups)),
         "us"},
        {"store.lookups_per_receipt",
         per(static_cast<double>(t.lookups), rp_receipts), "count"},
        {"store.wal_append_sync_us", micro["store.wal_append_sync_us"], "us"},
        {"store.wal_bytes_per_receipt",
         per(static_cast<double>(col.wal_bytes), col_receipts),
         "B"},
        {"net.mailbox_wait_p50_us", quantile(waits, 0.50), "us"},
        {"net.mailbox_wait_p99_us", quantile(waits, 0.99), "us"},
        {"net.bytes_per_receipt",
         per(static_cast<double>(t.vc_send_bytes), rp_receipts), "B"},
        {"net.frames_per_receipt",
         per(static_cast<double>(col.frames_sent), col_receipts),
         "count"},
        {"net.frames_dropped",
         static_cast<double>(col.frames_dropped), "count"},
        {"net.reconnects", static_cast<double>(col.reconnects),
         "count"},
        {"core.events_per_receipt",
         per(static_cast<double>(col.events), col_receipts), "count"},
        {"core.launch_s", col.launch_s, "s"},
        {"core.loadgen_late_p99_ms", quantile(lc.late_ms, 0.99), "ms"},
        // Cast latency percentiles: their spread between untraced runs on
        // a shared 4-vCPU host (IQR 0.26 of the median for p50 and 0.32 for
        // p99 on cast-threads) is wider than any bound an end-to-end metric
        // may carry, so they are reported here.
        {"client.cast_p50_ms", segmented(0.50), "ms"},
        {"client.cast_p99_ms", segmented(0.99), "ms"},
        {"core.resubmits_per_receipt",
         per(static_cast<double>(lc.resubmits),
             static_cast<double>(lc.receipted)),
         "count"},
        {"consensus.vote_set_s", median(consensus), "s"},
        {"bb.push_s", median(push), "s"},
        {"bb.publish_s", median(publish), "s"},
        {"client.audit_read_s", median(reads), "s"},
        {"client.audit_verify_s", median(audit_s), "s"},
    };
    fs::path spans = out_dir / ("spans-" + std::string(wl->name) + "-seed" +
                                std::to_string(args->seed) + ".jsonl");
    bool ok = collection_tracer.write_spans(spans.string(), false) &&
              election_tracer.write_spans(spans.string(), true);
    std::printf("# spans: %zu collection + %zu election spans in %s%s\n",
                collection_tracer.span_count(), election_tracer.span_count(),
                spans.c_str(), ok ? "" : " (write FAILED)");
    if (!ok) correct = false;
    for (const MetricOut& m : layer) {
      std::printf("# layer %s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  std::printf("# attempted=%zu failed=%zu correct=%s\n", attempted, failed,
              correct ? "true" : "false");
  std::printf("%s\n",
              json_result(correct, attempted, failed, args->trace ? layer : e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = parse(argc, argv);
  if (!args) return usage();
  const std::size_t cores =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::optional<Workload> wl =
      make_workload(args->workload, args->seconds, cores);
  if (!wl) return usage();
  try {
    return run_benchmark(&*args, &*wl, cores);
  } catch (const std::exception& e) {
    // A failed check inside the program or the benchmark: no result line.
    std::printf("# ERROR: %s\n", e.what());
    return 1;
  }
}
