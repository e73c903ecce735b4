// Tests for model configurations and the Table-I data-volume arithmetic.
#include <gtest/gtest.h>

#include "llm/model.hpp"

namespace hero::llm {
namespace {

TEST(ModelConfig, Opt66bParameterCount) {
  const ModelConfig m = opt_66b();
  // ~66B parameters at FP16 => ~132 GB of weights.
  EXPECT_NEAR(raw(m.param_bytes() / 2.0), raw(66e9), 3e9);
  EXPECT_EQ(m.layers, 64u);
  EXPECT_EQ(m.hidden, 9216u);
  EXPECT_EQ(m.heads, 72u);
}

TEST(ModelConfig, Opt175bParameterCount) {
  const ModelConfig m = opt_175b();
  EXPECT_NEAR(raw(m.param_bytes() / 2.0), raw(175e9), 8e9);
}

TEST(ModelConfig, Llama70bParameterCount) {
  const ModelConfig m = llama3_70b();
  // The generic dense-transformer formula counts ~60B for LLaMA-3-70B's
  // shape (the real model's 70.6B includes GQA-specific and norm weights
  // the Table-I model does not track); what matters here is the order of
  // magnitude used for memory planning.
  EXPECT_NEAR(raw(m.param_bytes() / 2.0), raw(60e9), 5e9);
  EXPECT_EQ(m.ffn, 28672u);
}

TEST(ModelConfig, Opt13bParameterCount) {
  EXPECT_NEAR(raw(opt_13b().param_bytes() / 2.0), raw(13e9), 1e9);
}

TEST(ModelConfig, KvBytesPerToken) {
  const ModelConfig m = opt_66b();
  // 2 (K and V) * L * h * 2 bytes.
  EXPECT_DOUBLE_EQ(raw(m.kv_bytes_per_token()), raw(2.0 * 64 * 9216 * 2.0));
}

TEST(ModelConfig, SyncVolumeIsKinTimesHidden) {
  const ModelConfig m = opt_66b();
  // D_col(a) = D_col(f) = K_in * h elements, FP16.
  EXPECT_DOUBLE_EQ(raw(m.sync_volume_per_step(1000)), raw(1000.0 * 9216 * 2.0));
}

TEST(ModelConfig, IterationSyncVolumeTwoStepsPerLayer) {
  const ModelConfig m = opt_66b();
  EXPECT_DOUBLE_EQ(raw(m.iteration_sync_volume(1000, 8)),
                   raw(2.0 * 8 * m.sync_volume_per_step(1000)));
}

TEST(ModelConfig, KvTransferShardsByTensorWidth) {
  const ModelConfig m = opt_66b();
  EXPECT_DOUBLE_EQ(raw(m.kv_transfer_bytes_per_gpu(512, 4)),
                   raw(m.kv_bytes_per_token() * 512 / 4.0));
  // p_tens = 0 treated as 1.
  EXPECT_DOUBLE_EQ(raw(m.kv_transfer_bytes_per_gpu(512, 0)),
                   raw(m.kv_bytes_per_token() * 512));
}

TEST(ModelConfig, LargerModelsCostMore) {
  EXPECT_GT(opt_175b().param_bytes(), opt_66b().param_bytes());
  EXPECT_GT(opt_175b().kv_bytes_per_token(), opt_66b().kv_bytes_per_token());
  EXPECT_GT(opt_66b().param_bytes(), opt_13b().param_bytes());
}


TEST(CommPrecision, Int8HalvesSyncVolume) {
  const ModelConfig fp16 = opt_66b();
  const ModelConfig int8 = fp16.with_int8_comm();
  EXPECT_DOUBLE_EQ(raw(int8.sync_volume_per_step(1000)),
                   raw(0.5 * fp16.sync_volume_per_step(1000)));
  // Weights and KV cache stay at the compute precision.
  EXPECT_DOUBLE_EQ(raw(int8.param_bytes()), raw(fp16.param_bytes()));
  EXPECT_DOUBLE_EQ(raw(int8.kv_bytes_per_token()),
                   raw(fp16.kv_bytes_per_token()));
}

}  // namespace
}  // namespace hero::llm
