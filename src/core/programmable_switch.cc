#include "core/programmable_switch.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "net/packet_pool.hh"

namespace isw::core {

template <class P>
void
ProgrammableSwitch::sendFrame(net::Ipv4Addr dst, std::uint16_t dst_port,
                              std::uint8_t tos, P &&payload)
{
    forward(net::makeUdpFrame(mac_, cfg_.ip, cfg_.udp_port, dst, dst_port,
                              tos, std::forward<P>(payload)));
}

ProgrammableSwitch::ProgrammableSwitch(sim::Simulation &s, std::string name,
                                       std::size_t num_ports,
                                       ProgrammableSwitchConfig cfg)
    : net::EthSwitch(s, std::move(name), num_ports, cfg.base), cfg_(cfg),
      accel_(s, cfg.accel),
      ctrl_(ControlPlane::Hooks{
          .send_control =
              [this](const Member &m, net::ControlPayload msg) {
                  sendControlTo(m, std::move(msg));
              },
          .reset_accel =
              [this] {
                  accel_.reset();
                  for (auto &kv : result_cache_)
                      releaseValues(kv.second);
                  result_cache_.clear();
              },
          .set_threshold =
              [this](std::uint32_t h, std::uint8_t job) {
                  setManualThreshold(h, job);
              },
          .force_broadcast =
              [this](std::uint64_t key) { accel_.forceEmit(key); },
          .resend_cached =
              [this](std::uint64_t request, const Member &req) {
                  const std::uint64_t key =
                      packSegWord(helpSeg(request), req.job);
                  const std::uint64_t want = helpSeq(request);
                  auto it = result_cache_.find(key);
                  if (it == result_cache_.end() ||
                      (want != 0 && it->second.seq != want)) {
                      return false; // wanted completion hasn't happened
                  }
                  sendResultTo(req, key, it->second);
                  return true;
              },
          .clear_segment =
              [this](std::uint64_t key) {
                  // A promoted backup keeps the replicated partial:
                  // state frames carry the full contributor set, so
                  // deduped retransmissions fold in exactly the
                  // missing contributions (DESIGN.md §16).
                  if (ha_promoted_ && accel_.pool().has(key) &&
                      accel_.dedupe(segWordJob(key)))
                      return;
                  if (accel_.pool().has(key))
                      dropPartial(key);
              },
          .membership_changed = [this] { refreshThreshold(); },
          .member_left =
              [this](const Member &m) {
                  // Reclaim the leaver's in-flight partials so a
                  // crashed worker can't pin aggregator slots (and
                  // inflate peak occupancy) until round end.
                  accel_.reclaimFrom(m.ip.bits());
              },
          .heartbeat =
              [this](net::Ipv4Addr) {
                  if (ha_backup_)
                      ha_monitor_.beat(sim_.now());
              },
          .failover = [this] { adoptFailoverUplink(); },
      }),
      mac_(net::MacAddr(0x02EE'0000'0000ULL | cfg.ip.bits()))
{
    accel_.setEmit([this](std::uint64_t key, SegState sum) {
        onEmit(key, std::move(sum));
    });
    accel_.setNack(
        [this](std::uint8_t job, std::uint64_t seg, std::uint32_t src) {
            sendNack(job, seg, src);
        });
}

void
ProgrammableSwitch::adminJoin(net::Ipv4Addr ip, std::uint16_t udp_port,
                              MemberType type, std::uint8_t job)
{
    ctrl_.applyMembership(net::Action::kJoin, ip,
                          encodeJoinValue(udp_port, type, job));
}

void
ProgrammableSwitch::setManualThreshold(std::uint32_t h, std::uint8_t job)
{
    pinned_h_.set(job);
    accel_.setThreshold(h, job);
}

void
ProgrammableSwitch::refreshThreshold()
{
    std::array<std::uint32_t, 256> members{};
    for (const Member &m : ctrl_.table().members())
        ++members[m.job];
    for (std::size_t job = 0; job < members.size(); ++job) {
        if (!pinned_h_.test(job))
            accel_.setThreshold(std::max(members[job], 1U),
                                static_cast<std::uint8_t>(job));
    }
}

bool
ProgrammableSwitch::interceptIngress(const net::PacketPtr &pkt,
                                     std::size_t in_port)
{
    (void)in_port;
    switch (pkt->ip.tos) {
      case net::kTosData: {
        // Contribution plane: aggregate regardless of addressing;
        // every iSwitch hop on the path folds tagged gradients in.
        if (const auto *chunk =
                std::get_if<net::ChunkPayload>(&pkt->payload)) {
            // Promoted backup: a contribution for a segment whose
            // result already replicated means the round completed on
            // the failed primary but the downward broadcast died with
            // it — the contributor's whole subtree re-aggregated and
            // is waiting. Re-serve the cached result instead of
            // folding a duplicate round into the pool.
            if (ha_promoted_) {
                const std::uint64_t key =
                    packSegWord(chunk->seg, chunk->job);
                const auto it = result_cache_.find(key);
                if (it != result_cache_.end()) {
                    const auto m = ctrl_.table().find(pkt->ip.src);
                    if (m)
                        sendResultTo(*m, key, it->second);
                    return true;
                }
            }
            accel_.ingest(pkt);
        }
        return true;
      }
      case net::kTosControl: {
        if (pkt->ip.dst == cfg_.ip) {
            onControl(pkt);
            return true;
        }
        return false; // control for someone else: regular forwarding
      }
      case net::kTosResult: {
        if (pkt->ip.dst == cfg_.ip) {
            onResult(pkt);
            return true;
        }
        return false; // worker-addressed result: forward normally
      }
      case net::kTosRepl: {
        if (pkt->ip.dst == cfg_.ip) {
            onRepl(pkt);
            return true;
        }
        return false; // replication for someone else: forward
      }
      default:
        return false;
    }
}

void
ProgrammableSwitch::onControl(const net::PacketPtr &pkt)
{
    if (const auto *c = std::get_if<net::ControlPayload>(&pkt->payload)) {
        ctrl_.handle(pkt->ip.src, pkt->udp.src_port, *c);
        if (!ha_primary_)
            return;
        // HA primary: mirror membership events and accepted SetH to the
        // backup so its table, auto-H and pinned H track ours. Duplicate
        // Joins mirror too — the backup's join() is idempotent, like ours.
        switch (c->action) {
          case net::Action::kJoin:
            repl_->onControl(c->action, pkt->ip.src.bits(),
                             c->has_value
                                 ? c->value
                                 : encodeJoinValue(pkt->udp.src_port,
                                                   MemberType::kWorker));
            break;
          case net::Action::kLeave:
            repl_->onControl(c->action, pkt->ip.src.bits(), 0);
            break;
          case net::Action::kSetH:
            if (c->has_value)
                repl_->onControl(c->action, pkt->ip.src.bits(),
                                 static_cast<std::uint32_t>(c->value));
            break;
          default:
            break;
        }
    }
}

void
ProgrammableSwitch::onResult(const net::PacketPtr &pkt)
{
    // A result from our parent: cache and fan out to our members.
    if (const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload)) {
        const std::uint64_t key = packSegWord(chunk->seg, chunk->job);
        CachedResult res{chunk->values, chunk->wire_floats, 0,
                         ++seg_completions_[key], chunk->prec, chunk->qexp};
        broadcastResult(key, res);
        storeResult(key, std::move(res));
    }
}

void
ProgrammableSwitch::releaseValues(CachedResult &res)
{
    if (res.pooled)
        net::PacketPool::local().releaseFloats(std::move(res.values));
}

void
ProgrammableSwitch::dropPartial(std::uint64_t key)
{
    net::PacketPool::local().releaseFloats(accel_.harvestPartial(key).acc);
}

void
ProgrammableSwitch::storeResult(std::uint64_t key, CachedResult &&res)
{
    CachedResult &slot = result_cache_[key];
    releaseValues(slot);
    slot = std::move(res);
    pruneCache(key);
}

void
ProgrammableSwitch::pruneCache(std::uint64_t latest_key)
{
    const std::uint8_t job = segWordJob(latest_key);
    std::uint64_t &job_max = max_seg_seen_[job];
    job_max = std::max(job_max, segWordIndex(latest_key));
    // Amortized: sweep only once the cache doubles past its window, so
    // the scan cost spreads over `cache_window` insertions.
    if (job_max < cfg_.cache_window ||
        result_cache_.size() < 2 * cfg_.cache_window)
        return;
    // Evict per job: one job's fast progress must not flush another's
    // still-needed results.
    const auto stale = [this](std::uint64_t key) {
        const auto it = max_seg_seen_.find(segWordJob(key));
        if (it == max_seg_seen_.end() || it->second < cfg_.cache_window)
            return false;
        return segWordIndex(key) < it->second - cfg_.cache_window;
    };
    for (auto it = result_cache_.begin(); it != result_cache_.end();) {
        if (!stale(it->first)) {
            ++it;
            continue;
        }
        releaseValues(it->second);
        it = result_cache_.erase(it);
    }
    std::erase_if(seg_completions_,
                  [&stale](const auto &kv) { return stale(kv.first); });
}

void
ProgrammableSwitch::onEmit(std::uint64_t key, SegState sum)
{
    if (!isRoot()) {
        // Forward the partial aggregate upward as a new contribution.
        net::ChunkPayload chunk;
        chunk.seg = segWordIndex(key);
        chunk.job = segWordJob(key);
        chunk.wire_floats = sum.wire_floats;
        chunk.prec = sum.prec;
        chunk.qexp = sum.qexp;
        chunk.values = std::move(sum.acc);
        sendFrame(cfg_.parent, cfg_.parent_port, net::kTosData,
                  std::move(chunk));
        return;
    }
    CachedResult res{std::move(sum.acc), sum.wire_floats, sum.count,
                     ++seg_completions_[key], sum.prec, sum.qexp,
                     /*pooled=*/true};
    broadcastResult(key, res);
    // HA primary: completions replicate via the result path (the
    // backup installs the result cache entry and drops any partial
    // replica — its pool never holds completed segments).
    if (ha_primary_)
        repl_->onResult(key, res.values, res.wire_floats, res.count,
                        res.seq, res.prec, res.qexp);
    storeResult(key, std::move(res));
}

void
ProgrammableSwitch::broadcastResult(std::uint64_t key,
                                    const CachedResult &res)
{
    // Results fan out only to the owning job's members; downstream
    // switches (kSwitch rows) always receive them for further fan-out.
    const std::uint8_t job = segWordJob(key);
    for (const Member &m : ctrl_.table().members()) {
        if (m.job == job || m.type == MemberType::kSwitch)
            sendResultTo(m, key, res);
    }
}

void
ProgrammableSwitch::sendResultTo(const Member &m, std::uint64_t key,
                                 const CachedResult &res)
{
    net::ChunkPayload chunk;
    chunk.seg = segWordIndex(key);
    chunk.job = segWordJob(key);
    chunk.wire_floats = res.wire_floats;
    chunk.prec = res.prec;
    chunk.qexp = res.qexp;
    chunk.values = net::PacketPool::local().acquireFloats(res.values.size());
    chunk.values.assign(res.values.begin(), res.values.end());
    sendFrame(m.ip, m.udp_port, net::kTosResult, std::move(chunk));
}

void
ProgrammableSwitch::sendNack(std::uint8_t job, std::uint64_t seg,
                             std::uint32_t src)
{
    const auto m = ctrl_.table().find(net::Ipv4Addr(src));
    if (!m)
        return; // unknown contributor: nothing to tell
    net::ControlPayload msg;
    msg.action = net::Action::kNack;
    msg.has_value = true;
    msg.value = packSegWord(seg, job);
    sendControlTo(*m, msg);
}

void
ProgrammableSwitch::sendControlTo(const Member &m, net::ControlPayload msg)
{
    sendFrame(m.ip, m.udp_port, net::kTosControl, msg);
}

void
ProgrammableSwitch::enableHaPrimary(net::Ipv4Addr backup_ip,
                                    std::uint16_t backup_port,
                                    ReplicationConfig repl)
{
    ha_primary_ = true;
    ha_peer_ip_ = backup_ip;
    ha_peer_port_ = backup_port;
    repl_ = std::make_unique<ReplicatedAccelerator>(
        sim_, accel_, repl,
        [this](net::Payload p) { sendReplPayload(std::move(p)); });
    accel_.setAccept([this](std::uint64_t key) { repl_->onAccept(key); });
}

void
ProgrammableSwitch::enableHaBackup(sim::TimeNs heartbeat_period,
                                   std::uint32_t miss_threshold)
{
    ha_backup_ = true;
    ha_monitor_.configure(heartbeat_period, miss_threshold, sim_.now());
}

void
ProgrammableSwitch::setFailoverUplink(net::Ipv4Addr new_parent,
                                      std::size_t port)
{
    ha_has_failover_uplink_ = true;
    ha_failover_parent_ = new_parent;
    ha_failover_port_ = port;
}

void
ProgrammableSwitch::haBeat()
{
    if (!ha_primary_)
        return;
    repl_->pump();
    net::ControlPayload hb;
    hb.action = net::Action::kHeartbeat;
    sendFrame(ha_peer_ip_, ha_peer_port_, net::kTosControl, hb);
}

bool
ProgrammableSwitch::haCheckPeer()
{
    if (!ha_backup_ || ha_promoted_)
        return false;
    if (ha_monitor_.check(sim_.now()) != HeartbeatMonitor::State::kDead)
        return false;
    promote();
    return true;
}

void
ProgrammableSwitch::promote()
{
    // Fail-stop promotion: once dead, the primary stays dead (no
    // failback, no split-brain — the fault model drops every frame the
    // old primary could send, and plans that rejoin it are rejected by
    // the harness for HA runs).
    ha_promoted_ = true;
    ha_promote_time_ = sim_.now();
    net::ControlPayload fo;
    fo.action = net::Action::kFailover;
    for (const Member &m : ctrl_.table().members())
        sendControlTo(m, fo);
}

void
ProgrammableSwitch::adoptFailoverUplink()
{
    if (!ha_has_failover_uplink_ || ha_failed_over_)
        return; // not wired for failover, or already flipped
    ha_failed_over_ = true;
    cfg_.parent = ha_failover_parent_;
    setDefaultPort(ha_failover_port_);
}

void
ProgrammableSwitch::sendReplPayload(net::Payload payload)
{
    sendFrame(ha_peer_ip_, ha_peer_port_, net::kTosRepl, std::move(payload));
}

void
ProgrammableSwitch::onRepl(const net::PacketPtr &pkt)
{
    if (const auto *c = std::get_if<net::ControlPayload>(&pkt->payload)) {
        // Mirrored Join, Leave or SetH: applied by the control plane's
        // own membership path, for the member the event names (not
        // the frame's source), and acked to no one.
        ctrl_.applyMembership(c->action,
                              net::Ipv4Addr(replMemberIp(c->value)),
                              replMemberJoinValue(c->value));
        ++ha_members_applied_;
        return;
    }
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    const std::uint64_t key = packSegWord(chunk->seg, chunk->job);
    if ((chunk->transfer_id & kReplResultBit) != 0) {
        // Completed result: install in the cache, advance the
        // completion floor, and drop any partial replica — the pool
        // must never hold a completed segment.
        const std::uint64_t seq = replResultSeq(chunk->transfer_id);
        CachedResult res{chunk->values, chunk->wire_floats,
                         replCount(chunk->transfer_id), seq, chunk->prec,
                         chunk->qexp};
        std::uint64_t &floor = seg_completions_[key];
        floor = std::max(floor, seq);
        if (accel_.pool().has(key))
            dropPartial(key);
        storeResult(key, std::move(res));
        ++ha_results_applied_;
        return;
    }
    // State frame: rebuild the segment replica wholesale (replace
    // semantics — see replication.hh), in the slot's own storage. The
    // contributor set rides after the accumulator words.
    SegState &st = accel_.pool().replicaSlot(key);
    const std::uint32_t nc = replContributors(chunk->transfer_id);
    st.count = replCount(chunk->transfer_id);
    st.wire_floats = chunk->wire_floats;
    st.prec = chunk->prec;
    st.qexp = chunk->qexp;
    const std::size_t accn = chunk->values.size() - nc;
    if (st.acc.capacity() == 0)
        st.acc = net::PacketPool::local().acquireFloats(accn);
    st.acc.assign(chunk->values.begin(),
                  chunk->values.begin() + static_cast<std::ptrdiff_t>(accn));
    st.contributors.clear();
    for (std::size_t i = 0; i < nc; ++i)
        st.contributors.insert(
            std::bit_cast<std::uint32_t>(chunk->values[accn + i]));
    ++ha_state_applied_;
}

} // namespace isw::core
