#include "crypto/identity.hpp"

namespace snipe::crypto {

const char* trust_purpose_name(TrustPurpose p) {
  switch (p) {
    case TrustPurpose::identify_host: return "identify_host";
    case TrustPurpose::identify_user: return "identify_user";
    case TrustPurpose::grant_resources: return "grant_resources";
    case TrustPurpose::sign_mobile_code: return "sign_mobile_code";
  }
  return "unknown";
}

Principal Principal::create(const std::string& uri, Rng& rng, std::size_t bits) {
  return Principal{uri, generate_keypair(rng, bits)};
}

Bytes Certificate::canonical_bytes() const {
  return encode(subject, codec::in_blob(subject_key), purposes, issuer);
}

Certificate Certificate::issue(const Principal& issuer, const std::string& subject,
                               const PublicKey& subject_key,
                               std::vector<TrustPurpose> purposes) {
  Certificate cert;
  cert.subject = subject;
  cert.subject_key = subject_key;
  cert.purposes = std::move(purposes);
  cert.issuer = issuer.uri;
  cert.signature = sign(issuer.keys.priv, cert.canonical_bytes());
  return cert;
}

bool Certificate::verify_with(const PublicKey& issuer_key) const {
  return verify(issuer_key, canonical_bytes(), signature);
}

bool Certificate::covers(TrustPurpose p) const {
  for (auto purpose : purposes)
    if (purpose == p) return true;
  return false;
}

SignedStatement SignedStatement::make(const Principal& signer, Bytes payload) {
  SignedStatement stmt;
  stmt.payload = std::move(payload);
  stmt.signer = signer.uri;
  stmt.signature = sign(signer.keys.priv, stmt.payload);
  return stmt;
}

bool SignedStatement::verify_with(const PublicKey& signer_key) const {
  return verify(signer_key, payload, signature);
}

Result<void> TrustStore::validate_direct(const SignedStatement& stmt,
                                         TrustPurpose purpose) const {
  auto it = issuers_.find(stmt.signer);
  if (it == issuers_.end() || it->second.purposes.count(purpose) == 0)
    return Error{Errc::permission_denied,
                 "signer " + stmt.signer + " not trusted for " + trust_purpose_name(purpose)};
  if (!stmt.verify_with(it->second.key))
    return Error{Errc::corrupt, "bad signature on statement from " + stmt.signer};
  return ok_result();
}

void TrustStore::trust(const std::string& issuer_uri, const PublicKey& issuer_key,
                       TrustPurpose purpose) {
  auto& entry = issuers_[issuer_uri];
  entry.key = issuer_key;
  entry.purposes.insert(purpose);
}

Result<void> TrustStore::validate(const Certificate& cert, TrustPurpose purpose) const {
  if (!cert.covers(purpose))
    return Error{Errc::permission_denied,
                 "certificate for " + cert.subject + " does not cover " +
                     trust_purpose_name(purpose)};
  auto it = issuers_.find(cert.issuer);
  if (it == issuers_.end() || it->second.purposes.count(purpose) == 0)
    return Error{Errc::permission_denied,
                 "issuer " + cert.issuer + " not trusted for " + trust_purpose_name(purpose)};
  if (!cert.verify_with(it->second.key))
    return Error{Errc::corrupt, "bad signature on certificate for " + cert.subject};
  return ok_result();
}

Result<void> TrustStore::validate_statement(const SignedStatement& stmt,
                                            const Certificate& signer_cert,
                                            TrustPurpose identity_purpose) const {
  if (signer_cert.subject != stmt.signer)
    return Error{Errc::permission_denied, "certificate subject does not match signer"};
  if (auto cert_ok = validate(signer_cert, identity_purpose); !cert_ok) return cert_ok;
  if (!stmt.verify_with(signer_cert.subject_key))
    return Error{Errc::corrupt, "bad signature on statement from " + stmt.signer};
  return ok_result();
}

}  // namespace snipe::crypto
