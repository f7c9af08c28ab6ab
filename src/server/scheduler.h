#pragma once
// Scheduler: the server end of the pull-model RPC.
//
// Everything is client-initiated (§III.A): clients POST a scheduler request
// reporting finished results and asking for work; the scheduler records
// reports, picks feedable results for the host (honouring the
// one-result-per-host-per-WU rule that keeps quorums honest), and for
// reduce results "uses JobTracker to identify which clients have finished
// map tasks for this job" and appends their addresses (§III.B, Fig. 3).

#include <functional>
#include <map>
#include <set>

#include "db/database.h"
#include "net/http.h"
#include "proto/messages.h"
#include "reputation/reputation.h"
#include "server/config.h"
#include "server/feeder.h"
#include "server/jobtracker.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "store/store.h"

namespace vcmr::server {

struct SchedulerStats {
  std::int64_t rpcs = 0;
  std::int64_t reports = 0;
  std::int64_t results_dispatched = 0;
  std::int64_t empty_replies = 0;  ///< work requested, none available
  std::int64_t late_reports = 0;   ///< report for a non-in-progress result
  std::int64_t locality_hits = 0;  ///< reduce results placed on data holders
  std::int64_t locality_skips = 0; ///< deferrals waiting for a holder
  std::int64_t input_peers_attached = 0;  ///< cacher endpoints handed out

  // Adaptive replication (vcmr::rep) trust decisions.
  std::int64_t trusted_singles = 0;   ///< dispatched as a lone replica
  std::int64_t spot_checks = 0;       ///< trusted host, replicated anyway
  std::int64_t trust_escalations = 0; ///< untrusted host forced a full quorum
  std::int64_t trust_skips = 0;       ///< deferrals waiting for a trusted host

  // Fast lost-work recovery.
  std::int64_t results_lost = 0;      ///< reconciled away (client forgot them)
  std::int64_t fetch_failures_reported = 0;  ///< failed-fetch reports received
  std::int64_t fetch_failures_ignored = 0;   ///< stale or server-mirrored
  std::int64_t maps_invalidated = 0;  ///< map WUs re-issued early

  // Volunteer replica store (vcmr::store).
  std::int64_t store_adverts = 0;         ///< Bloom adverts received
  std::int64_t store_peers_attached = 0;  ///< serve points handed out
  std::int64_t store_gate_skips = 0;      ///< dispatches deferred for a replica
};

class Scheduler {
 public:
  /// `policy` (optional) drives adaptive replication: single-replica work
  /// prefers trusted hosts, and each first assignment decides whether the
  /// work unit stays single or escalates to the full quorum. `trace`
  /// (optional) receives the scheduler's points: lost-result resends,
  /// invalidated maps, and trust decisions.
  Scheduler(sim::Simulation& sim, db::Database& db, Feeder& feeder,
            JobTracker& jobtracker, const ProjectConfig& cfg,
            net::HttpService& http, net::Endpoint ep,
            rep::AdaptiveReplicationPolicy* policy = nullptr,
            sim::TraceRecorder* trace = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  net::Endpoint endpoint() const { return ep_; }
  const SchedulerStats& stats() const { return stats_; }

  /// Server crash-fault: while down the endpoint answers every RPC with 503
  /// (clients back off and retry as for any failed RPC), and the CGI's soft
  /// state — delay-scheduling counters, trust deferrals, input-cacher map —
  /// is discarded; it never survives a process restart.
  void crash();
  /// Back up after a restore; soft state rebuilds from future requests.
  void restore() { down_ = false; }
  bool down() const { return down_; }

  /// Handles one request synchronously (testing hook; the HTTP path adds
  /// the RPC service delay around this).
  proto::SchedulerReply process(const proto::SchedulerRequest& req);

 private:
  void handle_report(HostId host, const proto::ReportedResult& rep);
  /// resend_lost_results: marks in-progress results the client no longer
  /// knows about as kOver/kLost and flags their WUs for transition.
  void reconcile_known_results(HostId host,
                               const std::vector<std::int64_t>& known);
  void handle_fetch_failure(HostId reporter,
                            const proto::FetchFailureReport& ff);
  void assign_work(const proto::SchedulerRequest& req,
                   proto::SchedulerReply& reply);
  proto::AssignedTask build_task(const db::ResultRecord& r,
                                 const db::WorkUnitRecord& wu,
                                 bool mr_capable);
  void note_cached_files(HostId host, const std::vector<std::string>& files);
  /// Volunteer replica store: trusted serve points for `name` (reputation-
  /// gated directory lookup), excluding the requester.
  std::vector<store::ReplicaDirectory::Source> store_sources(
      const std::string& name, HostId except, int max);
  bool host_may_be_needed(HostId host) const;
  /// Adaptive-replication gate for one candidate (result, host) pair.
  /// Returns false to defer the result for a trusted host; may escalate the
  /// WU to the full quorum before the caller assigns.
  bool apply_trust_policy(const db::ResultRecord& r, db::WorkUnitRecord& wu,
                          HostId host);

  sim::Simulation& sim_;
  db::Database& db_;
  Feeder& feeder_;
  JobTracker& jobtracker_;
  const ProjectConfig& cfg_;
  net::HttpService& http_;
  net::Endpoint ep_;
  rep::AdaptiveReplicationPolicy* policy_;
  sim::TraceRecorder* trace_;
  SchedulerStats stats_;
  bool down_ = false;
  std::map<ResultId, int> locality_skips_;  ///< delay-scheduling counters
  std::map<ResultId, int> trust_skips_;     ///< trusted-host deferral counters
  /// Peer-assisted input distribution: file name -> hosts serving it.
  std::map<std::string, std::vector<HostId>> input_cachers_;
  /// Volunteer replica store: Bloom adverts by host (soft state, like the
  /// maps above — dies with the CGI on crash()).
  store::ReplicaDirectory store_directory_;
  /// Locality-aware chunk dispatch: per input file, the distinct hosts that
  /// were sent it with no volunteer serve point attached (server-sourced).
  /// Distinct hosts, not raw sends: one host taking several work units of
  /// the same shared chunk downloads it once, so only new hosts widen the
  /// project tier's exposure.
  std::map<std::string, std::set<HostId>> server_sends_;
  std::map<ResultId, int> store_skips_;  ///< gate deferral counters
};

}  // namespace vcmr::server
