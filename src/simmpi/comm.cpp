#include "simmpi/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "simmpi/world.hpp"

namespace tucker::mpi {

std::int64_t Comm::next_coll_tag() {
  // Collective traffic lives in the negative tag space; each collective
  // invocation gets 256 tags for its internal rounds. All ranks call
  // collectives in the same order on a given comm, so the sequence numbers
  // agree without coordination.
  return -((++coll_seq_) << 8);
}

const CostModel& Comm::model() const { return world_->model(); }

void Comm::sync_cpu_clock() {
  RankState& st = world_->state(group_[static_cast<std::size_t>(rank_)]);
  const double now = st.cpu_timer.seconds();
  const double delta = now - st.cpu_last;
  st.cpu_last = now;
  if (delta > 0) {
    st.vtime += delta;
    st.breakdown.charge_compute(delta);
  }
}

double Comm::vtime() const {
  return world_->state(group_[static_cast<std::size_t>(rank_)]).vtime;
}

double Comm::comm_hidden() const {
  return world_->state(group_[static_cast<std::size_t>(rank_)]).overlap_hidden;
}

RegionScope Comm::region(std::string name) {
  sync_cpu_clock();  // attribute preceding compute to the previous region
  return RegionScope(breakdown(), std::move(name));
}

Breakdown& Comm::breakdown() {
  return world_->state(group_[static_cast<std::size_t>(rank_)]).breakdown;
}

std::int64_t Comm::bytes_sent() const {
  return world_->state(group_[static_cast<std::size_t>(rank_)]).bytes_sent;
}

std::int64_t Comm::messages_sent() const {
  return world_->state(group_[static_cast<std::size_t>(rank_)]).messages_sent;
}

void Comm::send_bytes(int dst, std::int64_t tag, const void* data,
                      std::int64_t bytes) {
  TUCKER_CHECK(dst >= 0 && dst < size(), "send: destination out of range");
  TUCKER_CHECK(bytes >= 0, "send: negative byte count");
  sync_cpu_clock();
  const int me_world = group_[static_cast<std::size_t>(rank_)];
  const int dst_world = group_[static_cast<std::size_t>(dst)];
  RankState& st = world_->state(me_world);

  // Posted ops run on their shadow clock; blocking ops on the rank clock.
  double* clk = st.alt_clock ? st.alt_clock : &st.vtime;
  // Injection serialization: this message cannot enter the wire before the
  // rank's previously injected message (blocking or in flight) has left.
  const double start = std::max(*clk, st.inject_busy_until);
  const double done = start + world_->model().message_cost(bytes);
  if (!st.alt_clock) st.breakdown.charge_comm(done - *clk);
  *clk = done;
  st.inject_busy_until = done;
  st.bytes_sent += bytes;
  st.messages_sent += 1;

  Mail mail;
  mail.src_world = me_world;
  mail.ctx = ctx_;
  mail.tag = tag;
  mail.bytes.resize(static_cast<std::size_t>(bytes));
  if (bytes > 0) std::memcpy(mail.bytes.data(), data, static_cast<std::size_t>(bytes));
  mail.ready_vtime = done;

  Mailbox& box = world_->box(dst_world);
  {
    std::lock_guard<std::mutex> g(box.mutex);
    box.queue.push_back(std::move(mail));
  }
  box.cv.notify_all();
}

double Comm::match_recv(int src_world, std::int64_t tag, void* data,
                        std::int64_t bytes) {
  const int me_world = group_[static_cast<std::size_t>(rank_)];
  Mailbox& box = world_->box(me_world);

  Mail mail;
  {
    std::unique_lock<std::mutex> lk(box.mutex);
    auto match = [&]() -> std::list<Mail>::iterator {
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it)
        if (it->src_world == src_world && it->ctx == ctx_ && it->tag == tag)
          return it;
      return box.queue.end();
    };
    std::list<Mail>::iterator it = match();
    if (it == box.queue.end()) {
      if (world_->watchdog_enabled()) {
        // Register what we are stuck on, then poll: deliveries only happen
        // from running ranks, so once every rank is registered the world
        // can no longer make progress and the watchdog fires.
        world_->watchdog_block(me_world, BlockedOp{src_world, ctx_, tag, bytes});
        while ((it = match()) == box.queue.end()) {
          box.cv.wait_for(lk, std::chrono::milliseconds(20));
          world_->watchdog_poll();
        }
        world_->watchdog_unblock(me_world);
      } else {
        box.cv.wait(lk, [&] { return (it = match()) != box.queue.end(); });
      }
    }
    mail = std::move(*it);
    box.queue.erase(it);
  }
  TUCKER_CHECK(static_cast<std::int64_t>(mail.bytes.size()) == bytes,
               "recv: message size mismatch");
  if (bytes > 0)
    std::memcpy(data, mail.bytes.data(), static_cast<std::size_t>(bytes));
  return mail.ready_vtime;
}

void Comm::recv_bytes(int src, std::int64_t tag, void* data,
                      std::int64_t bytes) {
  TUCKER_CHECK(src >= 0 && src < size(), "recv: source out of range");
  sync_cpu_clock();
  const double ready =
      match_recv(group_[static_cast<std::size_t>(src)], tag, data, bytes);

  // The message is usable once the sender's (virtual) transfer completes;
  // an early receiver idles until then.
  RankState& st = world_->state(group_[static_cast<std::size_t>(rank_)]);
  if (ready > st.vtime) {
    st.breakdown.charge_comm(ready - st.vtime);
    st.vtime = ready;
  }
}

Request Comm::isend_bytes(int dst, std::int64_t tag, const void* data,
                          std::int64_t bytes) {
  sync_cpu_clock();
  RankState& st = world_->state(group_[static_cast<std::size_t>(rank_)]);
  Request req;
  req.comm_ = this;
  req.kind_ = Request::Kind::kSend;
  // The hidden-credit span starts where the message can actually enter the
  // network: queueing behind the rank's own earlier injections is not
  // overlap (it would count the same wire time twice).
  req.post_vtime_ = std::max(st.vtime, st.inject_busy_until);

  // The payload is delivered eagerly; only its modeled time runs on the
  // request's shadow clock, surfaced at wait().
  double shadow = st.vtime;
  st.alt_clock = &shadow;
  send_bytes(dst, tag, data, bytes);
  st.alt_clock = nullptr;
  req.completion_ = shadow;
  return req;
}

Request Comm::irecv_bytes(int src, std::int64_t tag, void* data,
                          std::int64_t bytes) {
  TUCKER_CHECK(src >= 0 && src < size(), "irecv: source out of range");
  sync_cpu_clock();
  Request req;
  req.comm_ = this;
  req.kind_ = Request::Kind::kRecv;
  req.post_vtime_ = vtime();
  req.src_world_ = group_[static_cast<std::size_t>(src)];
  req.tag_ = tag;
  req.data_ = data;
  req.bytes_ = bytes;
  return req;
}

void Comm::credit_completion(double post_vtime, double completion) {
  sync_cpu_clock();
  RankState& st = world_->state(group_[static_cast<std::size_t>(rank_)]);
  // Clock advances to max(now, completion): the operation's span that was
  // covered by compute (or by other already-credited operations) is
  // hidden; only the uncovered remainder is charged as communication.
  const double raw = std::max(0.0, completion - post_vtime);
  const double gap = completion - st.vtime;
  if (gap > 0) {
    st.breakdown.charge_comm(gap);
    st.vtime = completion;
  }
  const double hidden = raw - std::max(0.0, gap);
  if (hidden > 0) st.overlap_hidden += hidden;
}

void Request::wait() {
  if (kind_ == Kind::kNone) return;
  if (kind_ == Kind::kRecv) {
    comm_->sync_cpu_clock();
    completion_ = comm_->match_recv(src_world_, tag_, data_, bytes_);
  }
  comm_->credit_completion(post_vtime_, completion_);
  kind_ = Kind::kNone;
}

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 P) rounds of zero-byte tokens.
  const int p = size();
  if (p == 1) return;
  const std::int64_t base = next_coll_tag();
  int round = 0;
  for (int k = 1; k < p; k *= 2, ++round) {
    const int dst = (rank_ + k) % p;
    const int src = (rank_ - k % p + p) % p;
    send_bytes(dst, base - round, nullptr, 0);
    recv_bytes(src, base - round, nullptr, 0);
  }
}

void Comm::bcast_bytes(void* data, std::int64_t bytes, int root) {
  const int p = size();
  TUCKER_CHECK(root >= 0 && root < p, "bcast: root out of range");
  if (p == 1) return;
  const std::int64_t tag = next_coll_tag();
  const int vr = (rank_ - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      const int src = (rank_ - mask + p) % p;
      recv_bytes(src, tag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int dst = (rank_ + mask) % p;
      send_bytes(dst, tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::allreduce_bytes(
    void* data, std::int64_t bytes,
    const std::function<void(void*, const void*)>& combine) {
  // Binomial-tree reduce to rank 0 followed by a binomial broadcast. This
  // costs 2 log P rounds (vs log P for recursive doubling) but guarantees
  // the bitwise-identical result on every rank that the MPI standard
  // requires of MPI_Allreduce -- which the Tucker algorithms rely on when
  // every rank redundantly selects truncation ranks from the reduced
  // singular values.
  const int p = size();
  if (p == 1) return;
  const std::int64_t base = next_coll_tag();
  std::vector<std::byte> tmp(static_cast<std::size_t>(bytes));

  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    if (rank_ & mask) {
      send_bytes(rank_ - mask, base - round, data, bytes);
      break;
    }
    const int src = rank_ + mask;
    if (src < p) {
      recv_bytes(src, base - round, tmp.data(), bytes);
      combine(data, tmp.data());
    }
  }
  bcast_bytes(data, bytes, 0);
}

void Comm::reduce_scatter_bytes(
    const void* data, void* recvbuf,
    const std::vector<std::int64_t>& byte_counts,
    const std::function<void(void*, const void*, std::int64_t)>& add_range) {
  // Ring reduce-scatter: P-1 steps; block b travels b+1 -> b+2 -> ... -> b,
  // each hop adding the local contribution. Bandwidth-optimal
  // ((P-1)/P of the buffer per rank) and deterministic: every block is
  // accumulated in a fixed ring order.
  const int p = size();
  TUCKER_CHECK(static_cast<int>(byte_counts.size()) == p,
               "reduce_scatter: need one count per rank");
  std::vector<std::int64_t> displs(byte_counts.size() + 1, 0);
  for (std::size_t i = 0; i < byte_counts.size(); ++i)
    displs[i + 1] = displs[i] + byte_counts[i];
  const std::int64_t total = displs.back();
  const auto me = static_cast<std::size_t>(rank_);

  if (p == 1) {
    if (total > 0) std::memcpy(recvbuf, data, static_cast<std::size_t>(total));
    return;
  }

  const std::int64_t base = next_coll_tag();
  std::vector<std::byte> working(static_cast<std::size_t>(total));
  if (total > 0)
    std::memcpy(working.data(), data, static_cast<std::size_t>(total));
  std::int64_t maxblock = 0;
  for (auto c : byte_counts) maxblock = std::max(maxblock, c);
  std::vector<std::byte> tmp(static_cast<std::size_t>(maxblock));

  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  for (int s = 1; s < p; ++s) {
    const auto sb = static_cast<std::size_t>((rank_ - s + 2 * p) % p);
    const auto rb = static_cast<std::size_t>((rank_ - 1 - s + 2 * p) % p);
    send_bytes(next, base - (s % 250), working.data() + displs[sb],
               byte_counts[sb]);
    recv_bytes(prev, base - (s % 250), tmp.data(), byte_counts[rb]);
    if (byte_counts[rb] > 0)
      add_range(working.data() + displs[rb], tmp.data(), byte_counts[rb]);
  }
  if (byte_counts[me] > 0)
    std::memcpy(recvbuf, working.data() + displs[me],
                static_cast<std::size_t>(byte_counts[me]));
}

void Comm::gatherv_bytes(const void* sendbuf, std::int64_t sendbytes,
                         void* recvbuf,
                         const std::vector<std::int64_t>& counts, int root) {
  const int p = size();
  TUCKER_CHECK(root >= 0 && root < p, "gatherv: root out of range");
  const std::int64_t tag = next_coll_tag();
  if (rank_ != root) {
    send_bytes(root, tag, sendbuf, sendbytes);
    return;
  }
  TUCKER_CHECK(static_cast<int>(counts.size()) == p,
               "gatherv: need one count per rank");
  std::int64_t offset = 0;
  for (int r = 0; r < p; ++r) {
    auto* out = static_cast<std::byte*>(recvbuf) + offset;
    if (r == root) {
      TUCKER_CHECK(counts[static_cast<std::size_t>(r)] == sendbytes,
                   "gatherv: root count mismatch");
      if (sendbytes > 0)
        std::memcpy(out, sendbuf, static_cast<std::size_t>(sendbytes));
    } else {
      recv_bytes(r, tag, out, counts[static_cast<std::size_t>(r)]);
    }
    offset += counts[static_cast<std::size_t>(r)];
  }
}

void Comm::alltoallv_bytes(const void* sendbuf,
                           const std::vector<std::int64_t>& sc,
                           const std::vector<std::int64_t>& sd, void* recvbuf,
                           const std::vector<std::int64_t>& rc,
                           const std::vector<std::int64_t>& rd) {
  const int p = size();
  const std::int64_t base = next_coll_tag();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);

  // Local block is a plain copy.
  const auto me = static_cast<std::size_t>(rank_);
  if (rc[me] > 0) {
    TUCKER_CHECK(sc[me] == rc[me], "alltoallv: self count mismatch");
    std::memcpy(out + rd[me], in + sd[me], static_cast<std::size_t>(rc[me]));
  }

  // Pairwise exchange: P-1 rounds, matching the paper's assumption of
  // P_n - 1 point-to-point messages per processor for the redistribution.
  for (int s = 1; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    send_bytes(dst, base - (s % 250), in + sd[static_cast<std::size_t>(dst)],
               sc[static_cast<std::size_t>(dst)]);
    recv_bytes(src, base - (s % 250), out + rd[static_cast<std::size_t>(src)],
               rc[static_cast<std::size_t>(src)]);
  }
}

Comm Comm::split(int color, int key) {
  TUCKER_CHECK(color >= 0, "split: color must be non-negative");
  const int p = size();

  // Gather (color, key) from everyone via rank 0, then broadcast.
  std::vector<std::int64_t> mine = {color, key};
  std::vector<std::int64_t> all(static_cast<std::size_t>(2 * p));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(p), 2);
  gatherv(mine.data(), 2, all.data(), counts, 0);
  bcast(all.data(), 2 * p, 0);

  // Membership: ranks with my color, sorted by (key, old rank).
  std::vector<std::pair<std::int64_t, int>> members;  // (key, old comm rank)
  for (int r = 0; r < p; ++r) {
    if (all[static_cast<std::size_t>(2 * r)] == color)
      members.emplace_back(all[static_cast<std::size_t>(2 * r + 1)], r);
  }
  std::stable_sort(members.begin(), members.end());

  std::vector<int> group;
  int newrank = -1;
  group.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int old = members[i].second;
    group.push_back(group_[static_cast<std::size_t>(old)]);
    if (old == rank_) newrank = static_cast<int>(i);
  }
  TUCKER_CHECK(newrank >= 0, "split: caller missing from its own color");

  const std::int64_t seq = ++coll_seq_;
  const std::int64_t ctx = world_->split_context(ctx_, seq, color);
  return Comm(world_, std::move(group), newrank, ctx);
}

}  // namespace tucker::mpi
