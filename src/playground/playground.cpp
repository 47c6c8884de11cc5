#include "playground/playground.hpp"

#include "rcds/signed.hpp"

namespace snipe::playground {

void publish_code(files::FileClient& files, rcds::RcClient& rc,
                  const simnet::Address& file_server, const std::string& lifn,
                  const Program& program, const crypto::Principal& signer,
                  const crypto::Certificate& signer_cert,
                  std::function<void(Result<void>)> done) {
  Bytes code = encode(program);
  std::string hash = crypto::digest_hex(crypto::sha256(code));
  auto subset = rcds::SignedSubset::sign(signer, lifn, {{rcds::names::kLifnHash, hash}});

  files.write(file_server, lifn, code,
              [&rc, lifn, subset, signer_cert, done = std::move(done)](Result<void> wrote) {
                if (!wrote) {
                  done(wrote);
                  return;
                }
                rc.apply(lifn,
                         {subset.to_op("code"),
                          rcds::op_set(code_names::kSignerCert,
                                       hex_encode(encode(signer_cert)))},
                         [done](Result<std::vector<rcds::Assertion>> r) {
                           if (!r)
                             done(r.error());
                           else
                             done(ok_result());
                         });
              });
}

Playground::Playground(rcds::RcClient& rc, files::FileClient& files,
                       crypto::TrustStore trust, PlaygroundConfig config)
    : rc_(rc),
      files_(files),
      trust_(std::move(trust)),
      config_(config),
      log_("playground", rc.rpc().host().clock()) {}

void Playground::load(const std::string& lifn, LoadHandler done) {
  rc_.get(lifn, [this, lifn, done = std::move(done)](
                    Result<std::vector<rcds::Assertion>> meta) mutable {
    if (!meta) {
      ++stats_.loads_rejected;
      done(meta.error());
      return;
    }
    std::string hash, sig_hex, cert_hex;
    for (const auto& a : meta.value()) {
      if (a.name == rcds::names::kLifnHash) hash = a.value;
      if (a.name == code_names::kSignature) sig_hex = a.value;
      if (a.name == code_names::kSignerCert) cert_hex = a.value;
    }

    if (config_.require_signature) {
      // §5.8: "the playground is responsible for verifying the authenticity
      // and integrity of the program".
      auto reject = [&](const std::string& why) {
        ++stats_.loads_rejected;
        log_.warn("rejecting ", lifn, ": ", why);  // logged access violation
        done(Error{Errc::permission_denied, lifn + ": " + why});
      };
      if (hash.empty() || sig_hex.empty() || cert_hex.empty())
        return reject("missing signature metadata");
      auto cert_bytes = hex_decode(cert_hex);
      if (!cert_bytes) return reject("malformed signer certificate");
      auto cert = decode<crypto::Certificate>(cert_bytes.value());
      if (!cert) return reject("undecodable signer certificate");
      if (auto v = trust_.validate(cert.value(), crypto::TrustPurpose::sign_mobile_code); !v)
        return reject(v.error().to_string());
      auto subset = rcds::SignedSubset::from_assertion_value(sig_hex);
      if (!subset) return reject("undecodable code signature");
      if (subset.value().signer != cert.value().subject)
        return reject("signature signer does not match certificate subject");
      if (!subset.value().verify_with(cert.value().subject_key))
        return reject("bad code signature");
      bool binds_hash = subset.value().uri == lifn;
      bool hash_listed = false;
      for (const auto& [n, v] : subset.value().entries)
        if (n == rcds::names::kLifnHash && v == hash) hash_listed = true;
      if (!binds_hash || !hash_listed) return reject("signature does not bind this code");
    }

    // FileClient re-verifies the content hash against RC during the read.
    files_.read(lifn, [this, lifn, done = std::move(done)](Result<Bytes> code) {
      if (!code) {
        ++stats_.loads_rejected;
        done(code.error());
        return;
      }
      auto program = decode<Program>(code.value());
      if (!program) {
        ++stats_.loads_rejected;
        done(program.error());
        return;
      }
      ++stats_.loads_ok;
      done(Vm(std::move(program).take(), config_.quota));
    });
  });
}

// ---------- VmTask ----------

VmTask::VmTask(simnet::Engine& engine, Vm vm, SimDuration cycle_time, std::uint64_t quantum)
    : engine_(engine), vm_(std::move(vm)), cycle_time_(cycle_time), quantum_(quantum) {}

VmTask::~VmTask() { engine_.cancel(timer_); }

void VmTask::start() {
  if (killed_ || timer_.valid()) return;
  timer_ = engine_.schedule(0, [this] {
    timer_ = simnet::TimerId{};
    slice();
  });
}

void VmTask::suspend() {
  engine_.cancel(timer_);
  timer_ = simnet::TimerId{};
}

void VmTask::kill() {
  suspend();
  killed_ = true;
  if (on_exit_) on_exit_(VmStatus::trapped, -1);
}

void VmTask::push_input(std::int64_t value) {
  vm_.push_input(value);
  if (!killed_ && !timer_.valid()) start();  // unblock a waiting task
}

void VmTask::slice() {
  if (killed_) return;
  std::uint64_t before = vm_.cycles_used();
  VmStatus status = vm_.run(quantum_);
  std::uint64_t used = vm_.cycles_used() - before;

  // Everything the slice produced becomes visible only after the CPU time
  // it consumed has elapsed on the virtual clock.
  SimDuration charge = static_cast<SimDuration>(used) * cycle_time_;

  timer_ = engine_.schedule(charge, [this, status] {
    timer_ = simnet::TimerId{};
    if (killed_) return;
    for (std::int64_t v : vm_.drain_output())
      if (on_output_) on_output_(v);
    switch (status) {
      case VmStatus::running:
      case VmStatus::ready:
        slice();
        break;
      case VmStatus::blocked:
        // Sleeps until push_input() restarts us — unless input already
        // arrived while this slice's CPU charge was elapsing.
        if (vm_.status() != VmStatus::blocked) slice();
        break;
      case VmStatus::checkpoint:
        vm_.acknowledge_checkpoint();
        if (on_checkpoint_) on_checkpoint_(vm_.snapshot());
        if (!killed_ && !timer_.valid()) start();
        break;
      case VmStatus::halted:
      case VmStatus::trapped:
      case VmStatus::quota:
        if (on_exit_) on_exit_(status, vm_.exit_code());
        break;
    }
  });
}

}  // namespace snipe::playground
