#pragma once
// Simulated MPI communicator.
//
// Ranks are threads inside one process (see runtime.hpp); a Comm provides
// the MPI subset the Tucker algorithms need: blocking tagged send/recv,
// sendrecv, barrier, bcast (binomial tree), allreduce (recursive doubling
// with non-power-of-two fold), gatherv-to-root, and pairwise alltoallv --
// the same algorithms production MPI libraries use, so message and byte
// counts (and their log P latency structure) are real, not formulas.
//
// Every operation also advances the rank's *virtual clock*: measured thread
// CPU time since the last sample (compute) plus alpha+beta*bytes modeled
// costs (communication). Simulated parallel time = max over ranks of the
// final virtual clock. Point-to-point messages carry the sender's clock so
// dependency chains propagate through collectives automatically.
//
// Nonblocking point-to-point ops (isend/irecv) return a Request handle.
// Data transfer happens eagerly (an isend's payload is in the destination
// mailbox before isend returns), but the *modeled time* of the operation
// runs on a shadow clock. At wait() the rank's clock advances to
// max(vtime, completion): compute performed between post and wait is
// credited against the communication, so the clock advances by
// max(compute, comm) instead of their sum, and the hidden portion is
// accumulated in RunStats::comm_hidden. sendrecv is built on them.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "simmpi/breakdown.hpp"
#include "simmpi/cost_model.hpp"

namespace tucker::mpi {

class World;
class Comm;

enum class Op { kSum, kMax, kMin };

/// Handle for a nonblocking operation. Move-only; a default-constructed or
/// already-waited Request is inactive (wait() is a no-op). Destroying or
/// move-assigning over a still-active Request is a programming error and
/// CHECK-fires: every posted op must be waited on so its modeled time is
/// credited exactly once.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept
      : comm_(other.comm_), kind_(other.kind_), completion_(other.completion_),
        post_vtime_(other.post_vtime_), src_world_(other.src_world_),
        tag_(other.tag_), data_(other.data_), bytes_(other.bytes_) {
    other.kind_ = Kind::kNone;
  }
  Request& operator=(Request&& other) {
    TUCKER_CHECK(kind_ == Kind::kNone,
                 "Request reused while still active (wait it first)");
    comm_ = other.comm_;
    kind_ = other.kind_;
    completion_ = other.completion_;
    post_vtime_ = other.post_vtime_;
    src_world_ = other.src_world_;
    tag_ = other.tag_;
    data_ = other.data_;
    bytes_ = other.bytes_;
    other.kind_ = Kind::kNone;
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request() {
    TUCKER_CHECK(kind_ == Kind::kNone,
                 "Request destroyed while still active (wait it first)");
  }

  bool active() const { return kind_ != Kind::kNone; }

  /// Blocks until the operation completes, then credits its modeled time:
  /// the clock advances to max(vtime, completion) and the overlapped
  /// remainder is recorded as hidden. No-op on an inactive request.
  void wait();

 private:
  friend class Comm;
  enum class Kind { kNone, kSend, kRecv };

  Comm* comm_ = nullptr;
  Kind kind_ = Kind::kNone;
  double completion_ = 0;   // shadow clock at op completion (kSend)
  double post_vtime_ = 0;   // rank clock when the op was posted
  // Receive matching (kRecv): resolved at wait.
  int src_world_ = -1;
  std::int64_t tag_ = 0;
  void* data_ = nullptr;
  std::int64_t bytes_ = 0;
};

class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  const CostModel& model() const;

  // ---- point to point -------------------------------------------------
  template <class T>
  void send(int dst, const T* data, std::int64_t count, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, user_tag(tag), data,
               count * static_cast<std::int64_t>(sizeof(T)));
  }

  template <class T>
  void recv(int src, T* data, std::int64_t count, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(src, user_tag(tag), data,
               count * static_cast<std::int64_t>(sizeof(T)));
  }

  /// Nonblocking send: the payload is copied into dst's mailbox before
  /// returning, stamped ready at post_vtime + message_cost; the sender's
  /// own clock is not advanced until wait().
  template <class T>
  Request isend(int dst, const T* data, std::int64_t count, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(dst, user_tag(tag), data,
                       count * static_cast<std::int64_t>(sizeof(T)));
  }

  /// Nonblocking receive: records the match; the message is consumed and
  /// the clock aligned to its ready time at wait().
  template <class T>
  Request irecv(int src, T* data, std::int64_t count, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(src, user_tag(tag), data,
                       count * static_cast<std::int64_t>(sizeof(T)));
  }

  /// Simultaneous exchange with a partner rank. Built on isend/irecv so
  /// the two directions are full-duplex: final clock is
  /// max(own send cost, partner ready time) -- identical to the historic
  /// blocking implementation, without its send-then-recv deadlock shape.
  template <class T>
  void sendrecv(int partner, const T* sendbuf, std::int64_t sendcount,
                T* recvbuf, std::int64_t recvcount, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    Request s = isend(partner, sendbuf, sendcount, tag);
    Request r = irecv(partner, recvbuf, recvcount, tag);
    r.wait();
    s.wait();
  }

  // ---- collectives ----------------------------------------------------
  void barrier();

  template <class T>
  void bcast(T* data, std::int64_t count, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data, count * static_cast<std::int64_t>(sizeof(T)), root);
  }

  template <class T>
  void allreduce(T* data, std::int64_t count, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    allreduce_bytes(
        data, count * static_cast<std::int64_t>(sizeof(T)),
        combine_fn<T>(count, op));
  }

  /// Reduce-scatter: element-wise sum of every rank's `data` (counts.total
  /// elements), after which each rank keeps only its block as given by
  /// `counts` (rank r receives counts[r] elements into recvbuf). This is
  /// the collective TuckerMPI's TTM uses to re-block the truncated mode.
  template <class T>
  void reduce_scatter(const T* data, T* recvbuf,
                      const std::vector<std::int64_t>& counts) {
    static_assert(std::is_trivially_copyable_v<T>);
    constexpr auto es = static_cast<std::int64_t>(sizeof(T));
    std::vector<std::int64_t> byte_counts(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      byte_counts[i] = counts[i] * es;
    auto add_range = [](void* inout, const void* in, std::int64_t bytes) {
      T* a = static_cast<T*>(inout);
      const T* b = static_cast<const T*>(in);
      const std::int64_t n = bytes / static_cast<std::int64_t>(sizeof(T));
      for (std::int64_t i = 0; i < n; ++i) a[i] += b[i];
    };
    reduce_scatter_bytes(data, recvbuf, byte_counts, add_range);
  }

  /// Gathers variable-sized blocks to `root`. counts has size() entries
  /// (in elements); recvbuf (significant at root) is laid out contiguously
  /// in rank order.
  template <class T>
  void gatherv(const T* sendbuf, std::int64_t sendcount, T* recvbuf,
               const std::vector<std::int64_t>& counts, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    constexpr auto es = static_cast<std::int64_t>(sizeof(T));
    std::vector<std::int64_t> byte_counts(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      byte_counts[i] = counts[i] * es;
    gatherv_bytes(sendbuf, sendcount * es, recvbuf, byte_counts, root);
  }

  /// Personalized all-to-all with per-rank counts/displacements (elements).
  template <class T>
  void alltoallv(const T* sendbuf, const std::vector<std::int64_t>& scounts,
                 const std::vector<std::int64_t>& sdispls, T* recvbuf,
                 const std::vector<std::int64_t>& rcounts,
                 const std::vector<std::int64_t>& rdispls) {
    static_assert(std::is_trivially_copyable_v<T>);
    constexpr auto es = static_cast<std::int64_t>(sizeof(T));
    const auto n = static_cast<std::size_t>(size());
    TUCKER_CHECK(scounts.size() == n && sdispls.size() == n &&
                     rcounts.size() == n && rdispls.size() == n,
                 "alltoallv: counts/displs must have comm-size entries");
    std::vector<std::int64_t> sc(n), sd(n), rc(n), rd(n);
    for (std::size_t i = 0; i < n; ++i) {
      sc[i] = scounts[i] * es;
      sd[i] = sdispls[i] * es;
      rc[i] = rcounts[i] * es;
      rd[i] = rdispls[i] * es;
    }
    alltoallv_bytes(sendbuf, sc, sd, recvbuf, rc, rd);
  }

  /// Splits into subcommunicators; ranks passing the same color end up in
  /// the same Comm, ordered by (key, old rank). Collective over this comm.
  Comm split(int color, int key);

  // ---- virtual time & accounting ---------------------------------------
  /// Samples this thread's CPU timer and charges the delta to the virtual
  /// clock (called automatically by every communication op).
  void sync_cpu_clock();

  /// Simulated time at this rank (call sync_cpu_clock() first for an
  /// up-to-date value mid-run).
  double vtime() const;

  /// Modeled communication seconds this rank has hidden behind compute or
  /// behind other in-flight operations so far.
  double comm_hidden() const;

  /// Region labeling for time breakdowns ("mode2/LQ", ...).
  RegionScope region(std::string name);
  Breakdown& breakdown();

  std::int64_t bytes_sent() const;
  std::int64_t messages_sent() const;

 private:
  friend class Runtime;
  friend class WorldAccess;
  friend class Request;
  Comm(World* world, std::vector<int> group, int rank, std::int64_t ctx)
      : world_(world), group_(std::move(group)), rank_(rank), ctx_(ctx) {}

  template <class T>
  static std::function<void(void*, const void*)> combine_fn(std::int64_t count,
                                                            Op op) {
    return [count, op](void* inout, const void* in) {
      T* a = static_cast<T*>(inout);
      const T* b = static_cast<const T*>(in);
      for (std::int64_t i = 0; i < count; ++i) {
        switch (op) {
          case Op::kSum: a[i] += b[i]; break;
          case Op::kMax: a[i] = a[i] > b[i] ? a[i] : b[i]; break;
          case Op::kMin: a[i] = a[i] < b[i] ? a[i] : b[i]; break;
        }
      }
    };
  }

  // Tag spaces: user tags and internal collective tags must not collide.
  std::int64_t user_tag(int tag) const {
    TUCKER_CHECK(tag >= 0, "negative tags are reserved");
    return tag;
  }
  std::int64_t next_coll_tag();

  void send_bytes(int dst, std::int64_t tag, const void* data,
                  std::int64_t bytes);
  void recv_bytes(int src, std::int64_t tag, void* data, std::int64_t bytes);
  Request isend_bytes(int dst, std::int64_t tag, const void* data,
                      std::int64_t bytes);
  Request irecv_bytes(int src, std::int64_t tag, void* data,
                      std::int64_t bytes);
  // Consumes the matching message, blocking until it is queued; stores the
  // payload and returns its ready time.
  double match_recv(int src_world, std::int64_t tag, void* data,
                    std::int64_t bytes);
  // Credits a completed nonblocking op: clock -> max(vtime, completion),
  // gap charged as comm, remainder of the op's span recorded as hidden.
  void credit_completion(double post_vtime, double completion);
  void bcast_bytes(void* data, std::int64_t bytes, int root);
  void allreduce_bytes(
      void* data, std::int64_t bytes,
      const std::function<void(void*, const void*)>& combine);
  void reduce_scatter_bytes(
      const void* data, void* recvbuf,
      const std::vector<std::int64_t>& byte_counts,
      const std::function<void(void*, const void*, std::int64_t)>& add_range);
  void gatherv_bytes(const void* sendbuf, std::int64_t sendbytes,
                     void* recvbuf, const std::vector<std::int64_t>& counts,
                     int root);
  void alltoallv_bytes(const void* sendbuf,
                       const std::vector<std::int64_t>& sc,
                       const std::vector<std::int64_t>& sd, void* recvbuf,
                       const std::vector<std::int64_t>& rc,
                       const std::vector<std::int64_t>& rd);

  World* world_;
  std::vector<int> group_;  // world ranks of comm members, by comm rank
  int rank_;                // my rank within this comm
  std::int64_t ctx_;        // context id separating comms' traffic
  std::int64_t coll_seq_ = 0;
};

}  // namespace tucker::mpi
