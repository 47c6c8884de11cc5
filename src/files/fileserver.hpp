// SNIPE file servers, sinks and sources (§3.2, §5.9).
//
// Files are named by LIFNs and replicated across file servers; name-to-
// location bindings live in the RC registry ("Name-to-location binding for
// these files is maintained by metadata servers, which are informed as
// replicas are created and deleted").  I/O follows the paper's model
// exactly:
//   * a *file sink* is spawned on the server; the writer sends it ordinary
//     SNIPE messages, which the sink reassembles at explicit offsets and
//     finally stores once every byte is covered;
//   * a *file source* is spawned on the server; it reads the file and
//     sends it to a SNIPE address as a message stream.
// Replication daemons push copies to peer servers up to the configured
// redundancy and register each new replica's location.
//
// Transfers are *striped* (GridFTP-style): a read or write is split into k
// parallel chunk streams, stripe s carrying the chunks whose index is
// congruent to s modulo k.  Each data message names its absolute byte
// offset, so stripes reassemble out of order and a re-issued stripe's
// duplicate chunks are idempotent.  Chunks are slices of the stored file's
// buffer, never copies, and the buffer is sealed with its SHA-256 when it
// is stored.  A read is verified by provenance: when every chunk is a slice
// of some replica's sealed copy at its own offset (stripes from two servers
// alternate between two copies) or, like a short tail the transport copied
// into a header chunk, equals the first copy's bytes by memcmp, the sealed
// digest stands without hashing a byte; anything else is hashed in full.
// The client spreads stripes across the LIFN's live replicas — ranked by
// network distance (§6: "Duplicated file reading/access is supported via
// location of closest resource daemons") plus observed failure history —
// and re-issues a stalled stripe from the next-best replica when its
// per-stripe progress timer fires, so a replica dying mid-stream degrades a
// transfer instead of wedging it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "obs/metrics.hpp"
#include "rcds/client.hpp"
#include "transport/rpc.hpp"
#include "util/codec.hpp"

namespace snipe::files {

namespace tags {
inline constexpr std::uint32_t kOpenSink = 122;    ///< spawn a file sink
inline constexpr std::uint32_t kSinkData = 123;    ///< one-way data to a sink
inline constexpr std::uint32_t kCloseSink = 124;   ///< finalize a sink
inline constexpr std::uint32_t kOpenSource = 125;  ///< spawn a file source
inline constexpr std::uint32_t kSourceData = 126;  ///< one-way data from a source
inline constexpr std::uint32_t kReplicate = 127;   ///< server-to-server copy
inline constexpr std::uint32_t kDelete = 128;
}  // namespace tags

// Transfer bodies.  kOpenSink replies with the u64 sink id, kCloseSink
// takes it (and fails if bytes are missing), kOpenSource replies with the
// pair (u64 total, u64 stripe_bytes), kDelete takes the LIFN.

/// kOpenSink request.
struct OpenSink {
  std::string lifn;
  std::uint64_t total = 0;
  std::uint32_t stripes = 1;

  template <class Io>
  void fields(Io& io) {
    io(lifn, total, stripes);
  }
};

/// kSinkData notice: one chunk of a write.
struct SinkChunk {
  std::uint64_t sink_id = 0;
  std::uint64_t offset = 0;
  Payload chunk;

  template <class Io>
  void fields(Io& io) {
    io(sink_id, offset, chunk);
  }
};

/// kOpenSource request: stream stripe `stripe_index` of `stripe_count` of
/// `lifn` to `dst` in `chunk_size` pieces (0 = the server's default).
struct OpenSource {
  std::string lifn;
  simnet::Address dst;
  std::uint64_t read_id = 0;
  std::uint32_t stripe_index = 0;
  std::uint32_t stripe_count = 1;
  std::uint64_t chunk_size = 0;

  template <class Io>
  void fields(Io& io) {
    io(lifn, dst, read_id, stripe_index, stripe_count, chunk_size);
  }
};

/// kSourceData notice: one chunk of a read.
struct SourceChunk {
  std::uint64_t read_id = 0;
  std::uint64_t total = 0;
  std::uint64_t offset = 0;
  Payload chunk;

  template <class Io>
  void fields(Io& io) {
    io(read_id, total, offset, chunk);
  }
};

/// kReplicate request: a whole file pushed server to server.
struct ReplicaPush {
  std::string lifn;
  Payload content;

  template <class Io>
  void fields(Io& io) {
    io(lifn, content);
  }
};

struct FileServerConfig {
  /// Total replicas (including this server) the replication daemon aims
  /// for on each stored file.
  int replication_factor = 1;
  /// Chunk size for source streaming when the reader does not dictate one.
  std::size_t chunk = 64 * 1024;
  /// The replication daemon's repair period: every tick it compares each
  /// local file's registered replica count against the redundancy target
  /// and pushes fresh copies when replicas have been lost ("creating and
  /// deleting replicas of files according to local policy, redundancy
  /// requirements, and demand" — §3.2).  0 disables repair.
  SimDuration repair_period = duration::seconds(15);
};

struct FileServerStats {
  std::uint64_t stores = 0;
  std::uint64_t sink_sessions = 0;
  std::uint64_t source_sessions = 0;  ///< stripe streams opened
  std::uint64_t replicas_pushed = 0;
  std::uint64_t replicas_received = 0;
  std::uint64_t repairs = 0;  ///< replicas re-created after loss (§3.2)
  std::uint64_t bytes_stored = 0;
  std::uint64_t sinks_expired = 0;      ///< idle sinks discarded by the TTL
  std::uint64_t sinks_incomplete = 0;   ///< kCloseSink with bytes missing
};

class FileServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 7120;
  /// Idle TTL for open sinks: a sink that sees no data for this long is
  /// discarded (its writer crashed or gave up), releasing the buffered
  /// bytes.  A sweep every kSinkTtl / 2 reaps them.
  static constexpr SimDuration kSinkTtl = duration::seconds(60);

  /// `rc_replicas`: the metadata registry to announce locations in.
  FileServer(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
             std::uint16_t port = kDefaultPort, FileServerConfig config = {});
  /// Takes this server's stored bytes back off the host's gauge.
  ~FileServer();

  /// Peer file servers the replication daemon may copy to.
  void set_peers(std::vector<simnet::Address> peers) { peers_ = std::move(peers); }

  simnet::Address address() const { return rpc_.address(); }
  /// The location string registered in RC for this server's replicas.
  std::string location_url() const;

  /// Direct in-process access (tests / co-located components).
  bool has(const std::string& lifn) const { return store_.count(lifn) > 0; }
  Result<Bytes> read(const std::string& lifn) const;
  /// Stores `content` under `lifn`, reusing its seal when provenance proves
  /// it and hashing it once otherwise (crypto::seal).
  void store_local(const std::string& lifn, const Payload& content, bool announce = true);

  std::size_t file_count() const { return store_.size(); }
  std::size_t open_sinks() const { return sinks_.size(); }
  const FileServerStats& stats() const { return stats_; }
  transport::RpcEndpoint& rpc() { return rpc_; }

 private:
  struct Sink {
    std::string lifn;
    /// Received chunks by offset, as delivered (slices of the writer's
    /// buffer on a clean path); assembled once, at close.
    std::map<std::uint64_t, Payload> chunks;
    std::uint64_t total = 0;
    std::uint32_t stripes = 1;
    /// Merged coverage intervals [offset, end) of the bytes received.
    std::map<std::uint64_t, std::uint64_t> extents;
    std::uint64_t covered = 0;
    SimTime last_activity = 0;
  };

  /// A stored file: its sealed buffer (crypto::seal) and the SHA-256 hex
  /// announced for it.  Sources serve slices of the buffer.
  struct Stored {
    Payload::Buffer bytes;
    std::string sha256;
  };

  /// Makes sealed `bytes` the content of `file`, keeping bytes_stored in
  /// step: the one accounting point for every path that stores a file.
  void put(Stored& file, Payload::Buffer bytes);
  /// Moves stats_.bytes_stored to `bytes` and the host's gauge with it.
  void set_bytes_stored(std::uint64_t bytes);
  void announce(const std::string& lifn, const Stored& file);
  void replicate(const std::string& lifn);
  void repair_tick();
  void repair_file(const std::string& lifn);
  void sink_sweep();

  transport::RpcEndpoint rpc_;
  simnet::Engine& engine_;
  FileServerConfig config_;
  rcds::RcClient rc_;
  std::vector<simnet::Address> peers_;
  std::map<std::string, Stored> store_;
  std::map<std::uint64_t, Sink> sinks_;
  std::uint64_t next_sink_id_ = 1;
  FileServerStats stats_;
  obs::Counter* bytes_served_;  ///< host's "files.bytes_served" (sources)
  /// Host's "files.bytes_stored".  A level, so a gauge: as a counter, an
  /// overwrite or delete that shrinks it would read as a registry reset to
  /// the beacon builder.  Each server adds its own changes, so servers
  /// sharing a host sum.
  obs::Gauge* bytes_stored_;
  Logger log_;
  /// Declared last so the stats visitor retires before stats_ dies.
  obs::SourceHandle stats_source_;
};

struct FileClientConfig {
  /// Chunk size dictated to sources/sinks (offset granularity).
  std::size_t chunk = 64 * 1024;
  /// Parallel stripe streams per transfer.  1 reproduces the paper's
  /// single-stream behaviour (closest replica only); larger counts spread
  /// stripes round-robin over the ranked replicas.
  std::uint32_t stripes = 1;
};

/// Client-side file I/O: striped sink writes, striped multi-replica source
/// reads with per-stripe stall failover, integrity verification against
/// the registered SHA-256.
class FileClient {
 public:
  using ReadHandler = std::function<void(Result<Bytes>)>;
  using DoneHandler = std::function<void(Result<void>)>;

  /// Per-stripe progress timeout: a stripe that receives nothing for this
  /// long is re-issued from the next-best replica.
  static constexpr SimDuration kStripeStall = duration::milliseconds(750);
  /// Deadline for the per-stripe kOpenSource RPC itself.
  static constexpr SimDuration kOpenTimeout = duration::seconds(2);

  FileClient(transport::RpcEndpoint& rpc, std::vector<simnet::Address> rc_replicas,
             FileClientConfig config = {});
  ~FileClient();

  /// Writes `content` under `lifn` by spawning a sink on `server` and
  /// streaming SNIPE messages to it (§5.9's "opening a file for writing"),
  /// one offset-stamped stream per stripe.
  void write(const simnet::Address& server, const std::string& lifn, Payload content,
             DoneHandler done);

  /// Resolves the LIFN, spreads `config.stripes` stripe streams over the
  /// live replicas (ranked by distance + failure history), reassembles the
  /// out-of-order chunks, re-issues stalled stripes, and verifies the
  /// content hash.  Chunks are kept as received slices and flattened into
  /// the handler's Bytes once, after verification.
  void read(const std::string& lifn, ReadHandler done);

  const FileClientConfig& config() const { return config_; }

 private:
  struct Stripe {
    std::uint32_t index = 0;
    std::size_t candidate = 0;   ///< position in the ranked candidate list
    std::uint64_t expected = 0;  ///< bytes this stripe must deliver
    std::uint64_t received = 0;
    SimTime last_progress = 0;
    SimTime opened_at = 0;
    simnet::TimerId timer;
    int attempts = 0;  ///< opens issued (1 + re-issues)
    bool done = false;
  };

  struct PendingRead {
    std::string lifn;
    std::string expect_hash;
    std::uint64_t total = 0;
    bool total_known = false;
    std::vector<simnet::Address> candidates;  ///< ranked best-first
    std::vector<Stripe> stripes;
    std::map<std::uint64_t, Payload> chunks;  ///< received chunks by offset
    std::uint64_t bytes_have = 0;
    ReadHandler done;
  };

  void open_stripe(std::uint64_t read_id, std::uint32_t stripe);
  /// Stall/failure path: pick the next-best replica and re-open, or fail
  /// the whole read once the stripe's attempt budget is spent.
  void reissue_stripe(std::uint64_t read_id, std::uint32_t stripe, const char* why);
  void arm_stripe_timer(std::uint64_t read_id, std::uint32_t stripe);
  void on_total_known(PendingRead& read);
  /// Completes the read: on success assembles the chunks, verifies them
  /// against the registered hash, and flattens them for the handler.
  void finish_read(std::uint64_t read_id, Result<void> result);
  void note_stripe_done(PendingRead& read, Stripe& s);
  /// Open attempts per stripe before the whole read fails: two passes over
  /// the candidate list plus one.
  int attempt_budget(const PendingRead& read) const;

  /// Orders candidate servers by observed failure history, then network
  /// distance from our host (stable, so the RC registration order breaks
  /// ties deterministically).
  std::vector<simnet::Address> rank_candidates(std::vector<simnet::Address> servers) const;

  transport::RpcEndpoint& rpc_;
  rcds::RcClient rc_;
  FileClientConfig config_;
  std::map<std::uint64_t, PendingRead> reads_;
  std::uint64_t next_read_id_ = 1;
  /// Observed failure history per replica host: bumped on open failures and
  /// stripe stalls, halved on stripe completion.
  std::map<std::string, int> host_failures_;
  /// The host's per-stripe instruments, each looked up once, on first use:
  /// registering them lazily keeps the host's registry, and so every
  /// telemetry beacon it sends, exactly as without the cache.
  obs::Counter* stripe_opens_ = nullptr;
  obs::Counter* stripe_stalls_ = nullptr;
  obs::Counter* stripe_reissues_ = nullptr;
  obs::Histogram* stripe_ms_ = nullptr;
  obs::Counter& instrument(obs::Counter*& slot, const char* name);
  /// Liveness token weakly captured by in-flight callbacks (RC lookups,
  /// stripe opens, the kSourceData handler left on the shared endpoint):
  /// the client can be destroyed with transfers outstanding, and a late
  /// callback must not touch the freed object.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  Logger log_;
};

}  // namespace snipe::files
