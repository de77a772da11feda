#include "runners.hpp"

#include <filesystem>
#include <limits>
#include <thread>

#include "client/auditor.hpp"
#include "core/driver.hpp"
#include "core/tcp_launcher.hpp"
#include "crypto/batch.hpp"
#include "crypto/commit.hpp"
#include "measure.hpp"
#include "net/thread_net.hpp"
#include "store/wal.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace ddemos;
using core::ElectionParams;
using sim::NodeId;
using Steady = std::chrono::steady_clock;

namespace {

ElectionParams base_params(const char* id, std::size_t m,
                           std::size_t n_ballots) {
  ElectionParams p;
  p.election_id = to_bytes(id);
  for (std::size_t i = 0; i < m; ++i) p.options.push_back("opt" + std::to_string(i));
  p.n_voters = n_ballots;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  return p;
}

// The line a voter casts: seeded choice of ballot part and option.
CastTarget pick_line(const core::Ballot& ballot, crypto::Rng& rng,
                     std::size_t m) {
  std::size_t part = rng.below(core::kNumParts);
  std::size_t option = rng.below(m);
  const core::BallotLine& line = ballot.parts[part].lines[option];
  return CastTarget{ballot.serial, line.vote_code, line.receipt, option};
}

sim::RunOptions wait_options(double seconds) {
  sim::RunOptions o;
  o.wall_timeout_us = static_cast<sim::Duration>(seconds * 1e6);
  return o;
}

}  // namespace

CollectionResult run_collection(const CollectionConfig& cfg, Tracer* tracer) {
  CollectionResult out;
  ElectionParams params = base_params("perfbench-collection", cfg.m,
                                      cfg.n_ballots);
  // Collection only: the election never closes inside the run.
  params.t_end = std::numeric_limits<std::int64_t>::max() / 4;
  const std::size_t n_vc = params.n_vc;
  const ea::EaConfig ea_cfg{params, cfg.seed, /*vc_only=*/true, 64};

  // The same streaming setup TcpLauncher's node processes run; repeated
  // so setup time is a median.
  ea::SetupArtifacts arts;
  std::vector<CastTarget> targets;
  std::vector<std::vector<core::VcBallotInit>> per_vc;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    targets.clear();
    targets.reserve(cfg.n_ballots);
    per_vc.assign(cfg.tcp ? 0 : n_vc, {});
    crypto::Rng pick(cfg.seed ^ 0x7a96e7ull);
    auto t0 = Steady::now();
    arts = ea::ea_setup_streaming(
        ea_cfg, [&](const core::Ballot& ballot,
                    std::span<core::VcBallotInit> slices) {
          targets.push_back(pick_line(ballot, pick, cfg.m));
          for (std::size_t i = 0; i < per_vc.size(); ++i) {
            per_vc[i].push_back(std::move(slices[i]));
          }
        });
    out.setup_s.push_back(seconds_since(t0));
  }

  auto t_launch = Steady::now();
  std::unique_ptr<core::TcpLauncher> launcher;
  std::unique_ptr<net::ThreadNet> threads;
  std::unique_ptr<TracingHost> traced_host;
  sim::RuntimeHost* host = nullptr;
  std::vector<NodeId> vc_ids(n_vc);
  for (std::size_t i = 0; i < n_vc; ++i) vc_ids[i] = static_cast<NodeId>(i);
  if (cfg.tcp) {
    core::TcpClusterSpec spec;
    spec.params = params;
    spec.seed = cfg.seed;
    spec.vc_only = true;
    spec.collection_only = true;
    if (!cfg.wal_dir.empty()) {
      spec.durability.wal_dir = cfg.wal_dir;
      spec.durability.fsync = cfg.wal_fsync;
    }
    launcher = std::make_unique<core::TcpLauncher>(std::move(spec));
    launcher->launch();
    host = &launcher->net();
    for (std::size_t i = 0; i < n_vc; ++i) {
      launcher->net().add_remote("vc" + std::to_string(i));
    }
  } else {
    threads = std::make_unique<net::ThreadNet>();
    host = threads.get();
    if (tracer) {
      traced_host = std::make_unique<TracingHost>(*threads, *tracer);
      host = traced_host.get();
    }
    for (std::size_t i = 0; i < n_vc; ++i) {
      std::shared_ptr<store::BallotDataSource> source =
          std::make_shared<store::MemoryBallotSource>(std::move(per_vc[i]));
      if (tracer) source = std::make_shared<TracedSource>(source, *tracer);
      host->add_node(std::make_unique<vc::VcNode>(arts.vc_inits[i], source,
                                                  vc_ids,
                                                  std::vector<NodeId>{}),
                     "vc" + std::to_string(i));
    }
  }
  NodeId client_id = host->add_node(
      std::make_unique<BenchClient>(std::move(targets), vc_ids, cfg.load,
                                    tracer),
      "client");
  auto& client = dynamic_cast<BenchClient&>(host->process(client_id));
  out.launch_s = seconds_since(t_launch);

  // Poll for the end rather than wait in run_to_quiescence: a waiter makes
  // every ThreadNet handler take a lock and wake this thread, which costs
  // the measured cores a context switch per message.
  double cpu0 = cpu_seconds_with_children();
  if (launcher) {
    launcher->go();
  } else {
    host->start();
  }
  const auto deadline =
      Steady::now() + std::chrono::duration_cast<Steady::duration>(
                          std::chrono::duration<double>(cfg.load.window_s + 60));
  while (!client.drained() && Steady::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  out.completed = client.drained();
  out.window_cpu_s = cpu_seconds_with_children() - cpu0;

  out.peak_rss_mb = self_peak_rss_mb();
  if (launcher) {
    for (const core::TcpProcessReport& rep : launcher->stop_cluster()) {
      out.events += rep.events;
      out.frames_sent += rep.frames_sent;
      out.frames_dropped += rep.frames_dropped;
      out.reconnects += rep.reconnects;
      out.peak_rss_mb = std::max(out.peak_rss_mb,
                                 static_cast<double>(rep.peak_rss_kb) / 1024);
    }
  }
  host->stop();
  if (threads) out.events = threads->events_dispatched();
  out.client = client.result();
  if (!cfg.wal_dir.empty()) {
    for (const auto& e : std::filesystem::directory_iterator(cfg.wal_dir)) {
      if (e.is_regular_file()) out.wal_bytes += e.file_size();
    }
  }
  return out;
}

ElectionResult run_election(const ElectionConfig& cfg, Tracer* tracer) {
  ElectionResult out;
  core::DriverConfig dcfg;
  dcfg.params = base_params("perfbench-election", cfg.m, cfg.n_ballots);
  dcfg.params.t_end = static_cast<sim::TimePoint>(cfg.voting_s * 1e6);
  dcfg.seed = cfg.seed;
  // Trustees poll the BBs for the result; a short period keeps tally_s a
  // measure of the work rather than of the polling grid.
  dcfg.trustee_options.poll_interval_us = 10'000;

  auto t0 = Steady::now();
  out.artifacts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({dcfg.params, cfg.seed, /*vc_only=*/false, 64}));
  out.setup_s = seconds_since(t0);
  const ea::SetupArtifacts& arts = *out.artifacts;

  crypto::Rng pick(cfg.seed ^ 0x5e1ec7ull);
  out.targets.reserve(cfg.casts);
  for (std::size_t i = 0; i < cfg.casts; ++i) {
    out.targets.push_back(pick_line(arts.voter_ballots[i], pick, cfg.m));
  }

  net::ThreadNet threads;
  sim::RuntimeHost* host = &threads;
  std::unique_ptr<TracingHost> traced_host;
  if (tracer) {
    traced_host = std::make_unique<TracingHost>(threads, *tracer);
    host = traced_host.get();
    dcfg.store_factory = [tracer](const core::VcInit& init) {
      return std::make_shared<TracedSource>(
          std::make_shared<store::MemoryBallotSource>(init.ballots), *tracer);
    };
  }
  core::ElectionTopology topo =
      core::build_protocol_nodes(*host, arts, dcfg);
  LoadShape load;
  load.in_flight = cfg.in_flight;
  load.window_s = cfg.voting_s;  // every cast starts inside the hours
  load.patience_s = 0;
  load.seed = cfg.seed;
  NodeId client_id = host->add_node(
      std::make_unique<BenchClient>(out.targets, topo.vc_ids, load, tracer),
      "client");
  auto& client = dynamic_cast<BenchClient&>(host->process(client_id));
  std::vector<const bb::BbNode*> bbs;
  for (NodeId id : topo.bb_ids) {
    bbs.push_back(&dynamic_cast<bb::BbNode&>(host->process(id)));
  }
  std::vector<const vc::VcNode*> vcs;
  for (NodeId id : topo.vc_ids) {
    vcs.push_back(&dynamic_cast<vc::VcNode&>(host->process(id)));
  }

  out.completed = host->run_to_quiescence(
      [&] {
        for (const bb::BbNode* bb : bbs) {
          if (!bb->result_published()) return false;
        }
        return client.drained();
      },
      wait_options(cfg.voting_s + 120));
  host->stop();
  out.client = client.result();

  // Phase boundaries in the host's clock (wall microseconds since start).
  // The push starts when the first VC has decided the vote set (BBs may
  // publish before the slowest VC decides), so the three phases add up to
  // tally_s exactly.
  const double t_end = static_cast<double>(dcfg.params.t_end);
  sim::TimePoint consensus = std::numeric_limits<sim::TimePoint>::max();
  sim::TimePoint codes = 0, result = 0;
  for (const vc::VcNode* vc : vcs) {
    consensus = std::min(consensus, vc->stats().consensus_done_at);
  }
  for (const bb::BbNode* bb : bbs) {
    codes = std::max(codes, bb->codes_published_at());
    result = std::max(result, bb->result_published_at());
  }
  out.consensus_s = (static_cast<double>(consensus) - t_end) / 1e6;
  out.push_s = static_cast<double>(codes - consensus) / 1e6;
  out.publish_s = static_cast<double>(result - codes) / 1e6;
  out.tally_s = (static_cast<double>(result) - t_end) / 1e6;

  out.expected_tally = out.client.receipts_by_option;
  out.expected_tally.resize(cfg.m, 0);
  for (const bb::BbNode* bb : bbs) {
    if (bb->result() && bb->result()->tally == out.expected_tally) {
      ++out.bbs_agreeing;
    }
  }
  if (!out.completed) return out;

  client::MajorityReader reader(bbs, dcfg.params.f_bb);
  if (tracer) {
    auto t_read = Steady::now();
    for (const core::Ballot& b : arts.voter_ballots) {
      if (!reader.read("ballot", b.serial)) {
        throw ProtocolError("perfbench: ballot missing from the board");
      }
    }
    out.audit_read_s = seconds_since(t_read);
  }
  client::Auditor auditor(reader);
  client::AuditOptions opts;
  opts.n_threads = cfg.audit_threads;
  auto t_audits = Steady::now();
  for (std::size_t pass = 0; pass < cfg.audit_passes ||
                             seconds_since(t_audits) < cfg.audit_window_s;
       ++pass) {
    auto t_audit = Steady::now();
    client::AuditReport rep = auditor.verify_election(opts);
    out.audit_pass_s.push_back(seconds_since(t_audit));
    if (!rep.passed || rep.tally != out.expected_tally) ++out.audit_failures;
  }
  return out;
}

namespace {

template <typename Fn>
double time_us(std::size_t reps, Fn&& fn) {
  auto t0 = Steady::now();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return seconds_since(t0) * 1e6 / static_cast<double>(reps);
}

void require(bool ok, const char* what) {
  if (!ok) throw ProtocolError(std::string("perfbench: micro check: ") + what);
}

}  // namespace

std::map<std::string, double> micro_timings(const ElectionResult& election,
                                            const std::string& scratch_dir,
                                            std::uint64_t seed) {
  const ea::SetupArtifacts& arts = *election.artifacts;
  const core::ElectionParams& p = arts.vc_inits.at(0).params;
  const core::VcInit& vc0 = arts.vc_inits.at(0);
  const CastTarget& cast = election.targets.at(0);
  std::map<std::string, double> out;
  crypto::Rng rng(seed ^ 0x3c40ull);

  // Endorsement signatures over the election's own (serial, code) digests.
  Bytes digest =
      core::endorsement_digest(p.election_id, cast.serial, cast.code);
  Bytes sig;
  out["crypto.schnorr_sign_us"] = time_us(200, [&](std::size_t) {
    sig = crypto::schnorr_sign(vc0.signing_key, digest);
  });
  bool all_ok = true;
  out["crypto.schnorr_verify_us"] = time_us(200, [&](std::size_t) {
    all_ok &= crypto::schnorr_verify(vc0.vc_public_keys[0], digest, sig);
  });
  require(all_ok, "schnorr_verify");

  // The vote-code check a VC makes on every VOTE: the salted hash of the
  // code against a line of the ballot (VC lines are in the EA's shuffled
  // order, so the cast line is found the way the VC finds it).
  std::size_t ballot_idx = static_cast<std::size_t>(
      cast.serial - arts.voter_ballots.front().serial);
  const core::VcBallotInit& vb = vc0.ballots.at(ballot_idx);
  std::size_t part = core::kNumParts, line = 0;
  for (std::size_t pt = 0; pt < core::kNumParts && part == core::kNumParts;
       ++pt) {
    for (std::size_t l = 0; l < vb.parts[pt].size(); ++l) {
      if (crypto::salted_commit_check(vb.parts[pt][l].code_hash, cast.code,
                                      vb.parts[pt][l].salt)) {
        part = pt;
        line = l;
        break;
      }
    }
  }
  require(part < core::kNumParts, "cast code on its VC ballot");
  const core::VcLineInit& li = vb.parts[part][line];
  out["crypto.vote_code_hash_us"] = time_us(5000, [&](std::size_t) {
    all_ok &= crypto::salted_commit_check(li.code_hash, cast.code, li.salt);
  });
  require(all_ok, "salted_commit_check");

  // Receipt reconstruction from a VC quorum's shares of the cast line;
  // a second quorum must reconstruct the same receipt.
  const std::size_t quorum = p.vc_quorum();
  auto quorum_shares = [&](std::size_t first_vc) {
    std::vector<crypto::Share> shares;
    for (std::size_t i = first_vc; i < first_vc + quorum; ++i) {
      shares.push_back(
          arts.vc_inits.at(i).ballots.at(ballot_idx).parts[part][line]
              .receipt_share);
    }
    return shares;
  };
  std::vector<crypto::Share> shares = quorum_shares(0);
  crypto::Fn secret;
  out["crypto.shamir_reconstruct_us"] = time_us(200, [&](std::size_t) {
    secret = crypto::shamir_reconstruct(shares, quorum);
  });
  require(secret == crypto::shamir_reconstruct(quorum_shares(p.n_vc - quorum),
                                               quorum),
          "shamir_reconstruct");

  const crypto::Point& key = arts.bb_inits.at(0).commit_key;
  crypto::Point acc = key;
  out["crypto.ec_mul_us"] = time_us(200, [&](std::size_t) {
    acc = crypto::ec_mul(crypto::random_scalar(rng), acc);
  });

  // Trustee share verification at the election's (ht, Nt).
  std::vector<crypto::PedersenVssInstance> vss;
  for (std::size_t d = 0; d < 16; ++d) {
    crypto::PedersenDeal deal = crypto::pedersen_vss_deal(
        crypto::random_scalar(rng), p.h_trustees, p.n_trustees, rng);
    for (const crypto::PedersenShare& s : deal.shares) {
      vss.push_back({s, deal.coefficient_comms});
    }
  }
  out["crypto.vss_verify_batch_us_per_share"] =
      time_us(20, [&](std::size_t) {
        all_ok &= crypto::pedersen_vss_verify_batch(vss);
      }) /
      static_cast<double>(vss.size());
  require(all_ok, "pedersen_vss_verify_batch");

  // One ballot's bit proofs (2 parts x m lines) under the election key.
  std::vector<crypto::BitProofInstance> bits;
  for (std::size_t i = 0; i < core::kNumParts * p.m(); ++i) {
    bool bit = i % p.m() == 0;
    crypto::Fn r = crypto::random_scalar(rng);
    crypto::ElGamalCipher c =
        crypto::eg_commit(key, crypto::Fn::from_u64(bit ? 1 : 0), r);
    crypto::BitProof proof = crypto::prove_bit(key, c, bit, r, rng);
    crypto::Fn challenge = crypto::random_scalar(rng);
    bits.push_back({c, proof.first_move, challenge, proof.secrets.at(challenge)});
  }
  out["crypto.bit_proof_batch_us"] = time_us(50, [&](std::size_t) {
    all_ok &= crypto::verify_bit_batch(key, bits);
  });
  require(all_ok, "verify_bit_batch");

  // A VC's per-cast log record: serial, code and the UCERT signatures.
  Writer rec;
  rec.u64(cast.serial);
  rec.bytes(cast.code);
  for (std::size_t i = 0; i < quorum; ++i) {
    rec.u32(static_cast<std::uint32_t>(i + 1));
    rec.bytes(sig);
  }
  Bytes record = rec.take();
  std::string wal_path = scratch_dir + "/micro.wal";
  std::filesystem::remove(wal_path);
  {
    store::Wal wal(wal_path, {store::FsyncPolicy::kAlways, 1});
    wal.replay([](std::uint8_t, BytesView) {});
    out["store.wal_append_sync_us"] = time_us(200, [&](std::size_t) {
      wal.append(vc::kWalPending, record);
    });
  }
  std::filesystem::remove(wal_path);
  return out;
}

}  // namespace perfbench
