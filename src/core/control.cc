#include "core/control.hh"

#include <algorithm>

#include "core/protocol.hh"

namespace isw::core {

namespace {

/** Row of member @p id in the id-ordered @p rows (the id is present). */
template <class Rows>
auto
rowOf(Rows &rows, std::uint32_t id)
{
    return std::lower_bound(
        rows.begin(), rows.end(), id,
        [](const Member &m, std::uint32_t want) { return m.id < want; });
}

} // namespace

std::uint32_t
MembershipTable::join(net::Ipv4Addr ip, std::uint16_t udp_port,
                      MemberType type, std::uint8_t job, bool *changed)
{
    auto it = ids_.find(ip);
    if (it != ids_.end()) {
        Member &m = *rowOf(rows_, it->second);
        if (changed != nullptr)
            *changed = m.udp_port != udp_port || m.type != type ||
                       m.job != job;
        m.udp_port = udp_port;
        m.type = type;
        m.job = job;
        return m.id;
    }
    const std::uint32_t id = next_id_++;
    rows_.push_back(Member{id, ip, udp_port, type, job});
    ids_[ip] = id;
    if (changed != nullptr)
        *changed = true;
    return id;
}

bool
MembershipTable::leave(net::Ipv4Addr ip)
{
    auto it = ids_.find(ip);
    if (it == ids_.end())
        return false;
    rows_.erase(rowOf(rows_, it->second));
    ids_.erase(it);
    return true;
}

std::optional<Member>
MembershipTable::find(net::Ipv4Addr ip) const
{
    auto it = ids_.find(ip);
    if (it == ids_.end())
        return std::nullopt;
    return *rowOf(rows_, it->second);
}

void
ControlPlane::ack(net::Ipv4Addr ip, std::uint16_t port, bool ok)
{
    net::ControlPayload reply;
    reply.action = net::Action::kAck;
    reply.has_value = true;
    reply.value = ok ? 1 : 0;
    if (hooks_.send_control)
        hooks_.send_control(Member{0, ip, port, MemberType::kWorker}, reply);
}

bool
ControlPlane::applyMembership(net::Action action, net::Ipv4Addr ip,
                              std::uint64_t value)
{
    switch (action) {
      case net::Action::kJoin: {
        // A duplicate Join (retransmitted hello, rejoin race) must not
        // trigger a membership recompute: the table did not change.
        // Mirrors the Leave-from-non-member rule below.
        bool changed = false;
        table_.join(ip, joinValuePort(value), joinValueType(value),
                    joinValueJob(value), &changed);
        halted_ = false;
        if (changed && hooks_.membership_changed)
            hooks_.membership_changed();
        return true;
      }
      case net::Action::kLeave: {
        // A Leave from a non-member must not trigger a membership
        // recompute: the table did not change.
        const auto leaver = table_.find(ip);
        if (!table_.leave(ip))
            return false;
        if (hooks_.member_left)
            hooks_.member_left(*leaver);
        if (hooks_.membership_changed)
            hooks_.membership_changed();
        return true;
      }
      case net::Action::kSetH: {
        if (!hooks_.set_threshold)
            return false;
        // Pin the requester's job only, as FBcast and Help act on the
        // requester's job.
        const auto m = table_.find(ip);
        hooks_.set_threshold(static_cast<std::uint32_t>(value),
                             m ? m->job : std::uint8_t{0});
        return true;
      }
      default:
        return false;
    }
}

void
ControlPlane::handle(net::Ipv4Addr src_ip, std::uint16_t src_port,
                     const net::ControlPayload &msg)
{
    switch (msg.action) {
      case net::Action::kJoin:
        // A Join without a value registers the sender's own port.
        applyMembership(msg.action, src_ip,
                        msg.has_value
                            ? msg.value
                            : encodeJoinValue(src_port, MemberType::kWorker));
        ack(src_ip, src_port, true);
        break;
      case net::Action::kLeave:
        ack(src_ip, src_port, applyMembership(msg.action, src_ip, 0));
        break;
      case net::Action::kReset: {
        if (hooks_.reset_accel)
            hooks_.reset_accel();
        ack(src_ip, src_port, true);
        break;
      }
      case net::Action::kSetH:
        ack(src_ip, src_port,
            msg.has_value && applyMembership(msg.action, src_ip, msg.value));
        break;
      case net::Action::kFBcast: {
        if (msg.has_value && hooks_.force_broadcast) {
            // Stamp the requester's job into the Seg word so multi-job
            // switches flush the right slot (no-op for job 0).
            const auto m = table_.find(src_ip);
            hooks_.force_broadcast(
                packSegWord(msg.value, m ? m->job : std::uint8_t{0}));
        }
        break;
      }
      case net::Action::kHelp: {
        auto requester = table_.find(src_ip);
        Member req = requester.value_or(
            Member{0, src_ip, src_port, MemberType::kWorker});
        const bool served =
            msg.has_value && hooks_.resend_cached &&
            hooks_.resend_cached(msg.value, req);
        if (!served && msg.has_value && hooks_.send_control) {
            // The segment never completed: some contribution was lost
            // upstream. Drop the partial sum (it may mix retransmitted
            // duplicates otherwise) and ask every worker of the
            // requester's job to retransmit the segment; the workers
            // own recovery, the switch only relays (paper §3.3).
            if (hooks_.clear_segment)
                hooks_.clear_segment(
                    packSegWord(helpSeg(msg.value), req.job));
            net::ControlPayload retx;
            retx.action = net::Action::kHelp;
            retx.has_value = true;
            retx.value = msg.value;
            for (const Member &m : table_.members()) {
                if (m.type == MemberType::kWorker && m.job == req.job)
                    hooks_.send_control(m, retx);
            }
        }
        break;
      }
      case net::Action::kHalt: {
        halted_ = true;
        net::ControlPayload halt;
        halt.action = net::Action::kHalt;
        if (hooks_.send_control) {
            for (const Member &m : table_.members())
                hooks_.send_control(m, halt);
        }
        ack(src_ip, src_port, true);
        break;
      }
      case net::Action::kHeartbeat: {
        // Liveness beat from the HA primary: feed the monitor, no ack
        // (acking would double the control-plane load for no benefit —
        // a lost beat is exactly what the monitor exists to notice).
        if (hooks_.heartbeat)
            hooks_.heartbeat(src_ip);
        break;
      }
      case net::Action::kFailover: {
        // The backup promoted itself; re-home to it. No ack: the
        // promotion is fail-stop and the backup retries nothing.
        if (hooks_.failover)
            hooks_.failover();
        break;
      }
      case net::Action::kAck:
      case net::Action::kNack:
        break; // confirmations/rejections terminate here
    }
}

} // namespace isw::core
