// Negative-path coverage for every SBI endpoint: malformed JSON, missing
// fields, wrong sizes and out-of-order operations must produce clean
// 4xx/5xx responses — never crashes or silent acceptance.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "json/json.h"
#include "nf/sbi.h"
#include "paka/aka_amf.h"
#include "paka/aka_ausf.h"
#include "paka/aka_udm.h"
#include "ran/ue.h"
#include "slice/slice.h"

namespace shield5g {
namespace {

class NegativeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    slice::SliceConfig cfg;
    cfg.mode = slice::IsolationMode::kContainer;
    cfg.subscriber_count = 1;
    cfg.keep_alive = true;
    slice_ = std::make_unique<slice::Slice>(cfg);
    slice_->create();
  }

  int post(const std::string& to, const std::string& path,
           const std::string& body) {
    net::HttpRequest req;
    req.method = net::Method::kPost;
    req.path = path;
    req.headers.set("content-type", "application/json");
    req.body = body;
    return slice_->bus().request("test", to, req).response.status;
  }

  std::unique_ptr<slice::Slice> slice_;
};

TEST_F(NegativeFixture, UdmGenerateAuthDataRejections) {
  const std::string path = "/nudm-ueau/v1/generate-auth-data";
  EXPECT_EQ(post("udm", path, "not json"), 400);
  EXPECT_EQ(post("udm", path, "{}"), 400);  // missing SNN
  EXPECT_EQ(post("udm", path, R"({"servingNetworkName":"x"})"), 400);
  EXPECT_EQ(post("udm", path,
                 R"({"servingNetworkName":"x","suci":"garbage"})"),
            403);  // undecodable identity
  EXPECT_EQ(post("udm", path,
                 R"({"servingNetworkName":"x","supi":"999990000000000"})"),
            404);  // unknown subscriber
}

TEST_F(NegativeFixture, UdmResyncRejections) {
  const std::string path = "/nudm-ueau/v1/resync";
  EXPECT_EQ(post("udm", path, "{]"), 400);
  EXPECT_EQ(post("udm", path, R"({"supi":"001010100000000"})"), 400);
  EXPECT_EQ(post("udm", path,
                 R"({"supi":"001010100000000","rand":"00","auts":"zz"})"),
            400);  // malformed hex
}

TEST_F(NegativeFixture, AusfRejections) {
  const std::string path = "/nausf-auth/v1/ue-authentications";
  EXPECT_EQ(post("ausf", path, "x"), 400);
  EXPECT_EQ(post("ausf", path, R"({"servingNetworkName":
      "5G:mnc001.mcc001.3gppnetwork.org"})"),
            400);  // no identity
  // Confirmation against a context that never existed.
  net::HttpRequest confirm = nf::json_put(
      "/nausf-auth/v1/ue-authentications/authctx-999/5g-aka-confirmation",
      json::parse(R"({"resStar":"00112233445566778899aabbccddeeff"})"));
  EXPECT_EQ(slice_->bus().request("test", "ausf", confirm).response.status,
            404);
}

TEST_F(NegativeFixture, SmfRejections) {
  const std::string path = "/nsmf-pdusession/v1/sm-contexts";
  EXPECT_EQ(post("smf", path, "null"), 400);
  EXPECT_EQ(post("smf", path, R"({"supi":"001010100000000"})"), 400);
  net::HttpRequest del;
  del.method = net::Method::kDelete;
  del.path = "/nsmf-pdusession/v1/sm-contexts/001010100000000/9";
  EXPECT_EQ(slice_->bus().request("test", "smf", del).response.status, 404);
}

TEST_F(NegativeFixture, PakaEndpointRejections) {
  // eUDM: valid JSON, wrong parameter sizes.
  json::Object body;
  body["supi"] = "001010100000000";
  body["opc"] = nf::hex_field(Bytes(8, 1));  // 8 bytes, not 16
  body["rand"] = nf::hex_field(Bytes(16, 2));
  body["sqn"] = nf::hex_field(Bytes(6, 3));
  body["amfId"] = nf::hex_field(Bytes(2, 4));
  body["snn"] = "5G:mnc001.mcc001.3gppnetwork.org";
  EXPECT_EQ(post("eudm-aka", "/paka/v1/generate-av",
                 json::Value(body).dump()),
            400);

  // eAUSF: truncated K_AUSF.
  json::Object se;
  se["rand"] = nf::hex_field(Bytes(16, 1));
  se["xresStar"] = nf::hex_field(Bytes(16, 2));
  se["snn"] = "x";
  se["kausf"] = nf::hex_field(Bytes(16, 3));  // 16 bytes, not 32
  EXPECT_EQ(post("eausf-aka", "/paka/v1/derive-se",
                 json::Value(se).dump()),
            400);

  // eAMF: missing SUPI.
  json::Object kamf_req;
  kamf_req["kseaf"] = nf::hex_field(Bytes(32, 1));
  EXPECT_EQ(post("eamf-aka", "/paka/v1/derive-kamf",
                 json::Value(kamf_req).dump()),
            400);
}

TEST_F(NegativeFixture, MethodAndRouteMismatches) {
  // GET on a POST-only endpoint.
  EXPECT_EQ(slice_->bus()
                .request("test", "udm",
                         nf::sbi_get("/nudm-ueau/v1/generate-auth-data"))
                .response.status,
            405);
  // Entirely unknown route.
  EXPECT_EQ(slice_->bus()
                .request("test", "udm", nf::sbi_get("/nope/v1/none"))
                .response.status,
            404);
}

TEST_F(NegativeFixture, AmfIgnoresOutOfOrderNas) {
  // An AuthenticationResponse without a pending challenge is dropped.
  nf::NasMessage msg;
  msg.type = nf::NasType::kAuthenticationResponse;
  msg.set(nf::NasIe::kResStar, Bytes(16, 1));
  EXPECT_EQ(slice_->amf().handle_uplink(99, msg.encode()), std::nullopt);
  // A SecurityModeComplete with no security context fails the MAC.
  const auto sec = nf::SecuredNas::protect(msg, Bytes(16, 2), 0, false);
  EXPECT_EQ(slice_->amf().handle_uplink(99, sec.encode()), std::nullopt);
}

TEST_F(NegativeFixture, AmfCountsEachSecuredUplinkIntegrityFailureOnce) {
  // Register one UE straight against the AMF, keeping its last secured
  // uplink (the RegistrationComplete).
  constexpr std::uint64_t kRanUeId = 7;
  ran::UeDevice ue(slice_->subscriber(0), 0x0eULL);
  std::optional<Bytes> uplink = ue.start_registration();
  Bytes last_secured;
  for (int round = 0; uplink && round < 16; ++round) {
    if (nf::SecuredNas::decode(*uplink)) last_secured = *uplink;
    const auto downlink = slice_->amf().handle_uplink(kRanUeId, *uplink);
    if (!downlink) break;
    uplink = ue.handle_downlink(*downlink);
  }
  ASSERT_EQ(ue.state(), ran::UeNasState::kRegistered);
  ASSERT_FALSE(last_secured.empty());

  const std::uint64_t before = counter_value("amf.nas.badmac");
  const std::uint64_t amf_before = slice_->amf().nas_badmac();
  // Stale COUNT: the replayed uplink carries a valid MAC.
  EXPECT_EQ(slice_->amf().handle_uplink(kRanUeId, last_secured), std::nullopt);
  EXPECT_EQ(counter_value("amf.nas.badmac") - before, 1u);
  // Bad MAC on an uplink with the expected COUNT.
  const Bytes fresh = ue.request_deregistration();
  auto tampered = nf::SecuredNas::decode(fresh);
  ASSERT_TRUE(tampered.has_value());
  tampered->mac[0] ^= 0x01;
  EXPECT_EQ(slice_->amf().handle_uplink(kRanUeId, tampered->encode()),
            std::nullopt);
  EXPECT_EQ(counter_value("amf.nas.badmac") - before, 2u);
  // The untouched uplink still verifies and is not counted.
  (void)slice_->amf().handle_uplink(kRanUeId, fresh);
  EXPECT_EQ(counter_value("amf.nas.badmac") - before, 2u);
  // The AMF's own count, which the reports print per mode, agrees.
  EXPECT_EQ(slice_->amf().nas_badmac() - amf_before, 2u);
}

TEST_F(NegativeFixture, FailuresLeaveSliceServiceable) {
  // After the whole barrage above, a legitimate UE still registers.
  EXPECT_TRUE(slice_->register_subscriber(0, true).session_up);
}

}  // namespace
}  // namespace shield5g
