// RCDS assertions: the unit of SNIPE metadata (§2.1, §5.2).
//
// "the metadata for a resource (a list of attribute 'name=value' pairs
//  called assertions) are maintained in a separate distributed and
//  replicated registry, which is indexed by the resource's URI".
//
// Names are multi-valued (a process has many communication addresses, a
// LIFN many locations), so each (name, value) pair is an independent
// last-writer-wins register with a tombstone for removal.  Servers stamp
// every write with the virtual time and their own identity ("Automatic
// time stamping of metadata by the RC servers", §3.1); (timestamp, origin,
// value) ordering makes replica merges commutative, associative and
// idempotent — the master–master model §7 contrasts with LDAP.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/time.hpp"

namespace snipe::rcds {

/// One replicated (name, value) register for some URI.
struct Assertion {
  std::string name;
  std::string value;
  SimTime timestamp = 0;   ///< stamped by the accepting server
  std::string origin;      ///< id of the accepting server
  bool tombstone = false;  ///< true if this pair has been removed

  template <class Io>
  void fields(Io& io) {
    io(name, value, timestamp, origin, tombstone);
  }

  /// Replica-merge ordering: a write dominates another iff it is strictly
  /// newer by (timestamp, origin).  Equal keys are the same write.
  static bool newer(const Assertion& a, const Assertion& b) {
    if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
    if (a.origin != b.origin) return a.origin > b.origin;
    return a.tombstone && !b.tombstone;  // removal wins a perfect tie
  }
};

/// All assertions of one resource, keyed by (name, value).
class Record {
 public:
  /// Merges an assertion; returns true if the record changed (i.e., the
  /// incoming write was new or dominated the stored one).
  bool merge(const Assertion& a);

  /// Live (non-tombstoned) assertions, sorted by (name, value).
  std::vector<Assertion> live() const;
  /// All registers including tombstones, for replication.
  std::vector<Assertion> all() const;
  /// Live values for one name.
  std::vector<std::string> values(const std::string& name) const;
  /// First live value for a name, if any (single-valued convention).
  std::optional<std::string> value(const std::string& name) const;
  /// Latest write timestamp across all registers (for anti-entropy digests).
  SimTime latest() const { return latest_; }

  bool empty() const { return map_.empty(); }
  std::size_t size() const { return map_.size(); }

 private:
  std::map<std::pair<std::string, std::string>, Assertion> map_;
  SimTime latest_ = 0;
};

/// A mutation requested by a client (before the server stamps it).
struct Op {
  enum class Kind : std::uint8_t {
    add = 1,     ///< assert (name, value)
    remove = 2,  ///< retract (name, value)
    set = 3,     ///< retract every current value of `name`, then assert
  };
  Kind kind = Kind::add;
  std::string name;
  std::string value;

  template <class Io>
  void fields(Io& io) {
    io(kind, name, value);
  }
  Result<void> check() const {
    if (kind < Kind::add || kind > Kind::set) return Error{Errc::corrupt, "bad op kind"};
    return ok_result();
  }
};

/// Convenience builders.
inline Op op_add(std::string name, std::string value) {
  return Op{Op::Kind::add, std::move(name), std::move(value)};
}
inline Op op_remove(std::string name, std::string value) {
  return Op{Op::Kind::remove, std::move(name), std::move(value)};
}
inline Op op_set(std::string name, std::string value) {
  return Op{Op::Kind::set, std::move(name), std::move(value)};
}

/// Well-known assertion names used across SNIPE (§5.2).
namespace names {
inline constexpr const char* kHostDaemon = "host:daemon";        ///< daemon URL
inline constexpr const char* kHostCpus = "host:cpus";
inline constexpr const char* kHostArch = "host:arch";
inline constexpr const char* kHostBroker = "host:broker";        ///< RM URLs
inline constexpr const char* kHostInterface = "host:interface";  ///< per NIC
inline constexpr const char* kHostKey = "host:pubkey";
inline constexpr const char* kHostLoad = "host:load";
inline constexpr const char* kHostTask = "host:task";            ///< tasks started here (§3.7)
inline constexpr const char* kProcAddress = "proc:address";      ///< comm URL
inline constexpr const char* kProcHost = "proc:host";
inline constexpr const char* kProcState = "proc:state";
inline constexpr const char* kProcNotify = "proc:notify";        ///< notify list
inline constexpr const char* kProcSupervisor = "proc:supervisor";
inline constexpr const char* kGroupRouter = "group:router";      ///< multicast
inline constexpr const char* kGroupNotify = "group:notify";
inline constexpr const char* kLifnLocation = "lifn:location";    ///< replicas
inline constexpr const char* kLifnHash = "lifn:sha256";
inline constexpr const char* kCodeSignature = "code:signature";
inline constexpr const char* kServiceLocation = "service:location";
}  // namespace names

}  // namespace snipe::rcds
