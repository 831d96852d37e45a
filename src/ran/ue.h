// UE NAS state machine: the device-side mirror of the AMF's procedures.
//
// Performs registration (SUCI, challenge response with RES*, security
// mode with real NAS integrity keys) and PDU session establishment. All
// key derivations (CK/IK -> K_AUSF -> K_SEAF -> K_AMF -> NAS keys) run
// on the UE side too, so the NAS MACs only verify when both halves of
// the hierarchy agree — the end-to-end correctness check of the AKA
// implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "crypto/eph_pool.h"
#include "nf/nas.h"
#include "ran/usim.h"

namespace shield5g::ran {

enum class UeNasState {
  kIdle,
  kWaitAuth,
  kReregistering,  // sent a GUTI registration, outcome open
  kWaitSecurityMode,
  kWaitAccept,
  kRegistered,
  kWaitPduAccept,
  kSessionUp,
  kDeregistering,
  kFailed,
};

class UeDevice {
 public:
  /// `eph_pool` (optional) supplies off-meter ECIES ephemerals for
  /// SUCI concealment; nullptr draws fresh entropy from the UE RNG (the
  /// legacy path, byte-identical to earlier revisions).
  UeDevice(UsimConfig usim, std::uint64_t seed,
           crypto::EphemeralKeyPool* eph_pool = nullptr);

  UeNasState state() const noexcept { return state_; }
  const Usim& usim() const noexcept { return usim_; }
  Usim& usim() noexcept { return usim_; }
  const std::string& ue_ip() const noexcept { return ue_ip_; }
  const std::string& guti() const noexcept { return guti_; }
  const SecretBytes& kamf() const noexcept { return kamf_; }

  /// Starts registration; returns the RegistrationRequest NAS PDU.
  Bytes start_registration();

  /// Re-registration with the GUTI from the previous session (TS 23.502
  /// mobility registration): the network either restores the security
  /// context directly or falls back to an Identity Request + fresh AKA.
  Bytes start_reregistration();

  /// Consumes one downlink NAS PDU; returns the uplink response if one
  /// is due. Transitions to kFailed on reject / verification failure.
  std::optional<Bytes> handle_downlink(ByteView nas);

  /// After registration: builds a PDU session establishment request.
  Bytes request_pdu_session(std::uint8_t session_id = 1,
                            const std::string& dnn = "internet");

  /// UE-initiated deregistration (releases all sessions and the GUTI).
  Bytes request_deregistration();

 private:
  std::optional<Bytes> on_auth_request(const nf::NasMessage& msg);
  std::optional<Bytes> on_security_mode_command(const nf::SecuredNas& sec);
  std::optional<Bytes> on_registration_accept(const nf::NasMessage& msg);
  std::optional<Bytes> on_pdu_accept(const nf::NasMessage& msg);
  Bytes protect_uplink(const nf::NasMessage& msg);

  crypto::Suci conceal_supi();

  Usim usim_;
  Rng rng_;
  crypto::EphemeralKeyPool* eph_pool_;
  UeNasState state_ = UeNasState::kIdle;
  std::string snn_;
  Bytes rand_;
  SecretBytes kseaf_;
  SecretBytes kamf_;
  SecretBytes knas_int_;
  SecretBytes knas_enc_;
  std::uint32_t ul_count_ = 0;
  std::uint32_t dl_count_ = 0;
  std::string guti_;
  std::string ue_ip_;
};

}  // namespace shield5g::ran
