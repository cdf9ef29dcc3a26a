//! Transformer / LLM architecture descriptions.
//!
//! The paper evaluates LLaMA-2-architecture models with 32B, 70B and 110B
//! parameters (context length 4K, global batch 64 ≙ 256K tokens per step).
//! [`ModelSpec`] captures the architectural hyper-parameters needed to derive
//! parameter counts, FLOPs and memory footprints analytically.

use serde::{Deserialize, Serialize};

/// Architecture description of a decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"llama2-70b"`.
    pub name: String,
    /// Number of identical transformer layers (`L` in the paper).
    pub num_layers: u32,
    /// Hidden dimension.
    pub hidden_size: u64,
    /// Feed-forward (SwiGLU) inner dimension.
    pub ffn_hidden_size: u64,
    /// Number of attention heads.
    pub num_heads: u64,
    /// Number of key/value heads (grouped-query attention).
    pub num_kv_heads: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Training sequence (context) length in tokens.
    pub seq_len: u64,
}

impl ModelSpec {
    /// Construct a custom spec.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per ModelSpec field"
    )]
    pub fn new(
        name: impl Into<String>,
        num_layers: u32,
        hidden_size: u64,
        ffn_hidden_size: u64,
        num_heads: u64,
        num_kv_heads: u64,
        vocab_size: u64,
        seq_len: u64,
    ) -> Self {
        Self {
            name: name.into(),
            num_layers,
            hidden_size,
            ffn_hidden_size,
            num_heads,
            num_kv_heads,
            vocab_size,
            seq_len,
        }
    }

    /// LLaMA-2 7B (used by the quickstart example and unit tests).
    pub fn llama2_7b() -> Self {
        Self::new("llama2-7b", 32, 4096, 11008, 32, 32, 32000, 4096)
    }

    /// LLaMA-2 13B.
    pub fn llama2_13b() -> Self {
        Self::new("llama2-13b", 40, 5120, 13824, 40, 40, 32000, 4096)
    }

    /// The 32B model of the paper (60 transformer layers, cf. Appendix A.1).
    pub fn llama2_32b() -> Self {
        Self::new("llama2-32b", 60, 6656, 17920, 52, 8, 32000, 4096)
    }

    /// LLaMA-2 70B (80 layers, grouped-query attention).
    pub fn llama2_70b() -> Self {
        Self::new("llama2-70b", 80, 8192, 28672, 64, 8, 32000, 4096)
    }

    /// The 110B model of the paper (80 layers, cf. Table 4).
    pub fn llama2_110b() -> Self {
        Self::new("llama2-110b", 80, 10240, 35840, 80, 8, 32000, 4096)
    }

    /// Return the preset matching a short name (`"32b"`, `"70b"`, `"110b"`, ...).
    pub fn preset(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "7b" | "llama2-7b" => Some(Self::llama2_7b()),
            "13b" | "llama2-13b" => Some(Self::llama2_13b()),
            "32b" | "llama2-32b" => Some(Self::llama2_32b()),
            "70b" | "llama2-70b" => Some(Self::llama2_70b()),
            "110b" | "llama2-110b" => Some(Self::llama2_110b()),
            _ => None,
        }
    }

    /// Parameters of the attention block of one layer (QKV + output projection,
    /// with grouped-query attention shrinking K/V).
    pub fn attention_params_per_layer(&self) -> u64 {
        let h = self.hidden_size;
        let kv_ratio = self.num_kv_heads as f64 / self.num_heads as f64;
        let qo = 2 * h * h;
        let kv = (2.0 * kv_ratio * (h * h) as f64).round() as u64;
        qo + kv
    }

    /// Parameters of the SwiGLU MLP of one layer (gate, up, down projections).
    pub fn mlp_params_per_layer(&self) -> u64 {
        3 * self.hidden_size * self.ffn_hidden_size
    }

    /// Parameters of the RMSNorm weights of one layer.
    pub fn norm_params_per_layer(&self) -> u64 {
        2 * self.hidden_size
    }

    /// Total parameters of one transformer layer.
    pub fn params_per_layer(&self) -> u64 {
        self.attention_params_per_layer()
            + self.mlp_params_per_layer()
            + self.norm_params_per_layer()
    }

    /// Parameters of the input embedding table.
    pub fn embedding_params(&self) -> u64 {
        self.vocab_size * self.hidden_size
    }

    /// Parameters of the (untied) LM head.
    pub fn lm_head_params(&self) -> u64 {
        self.vocab_size * self.hidden_size
    }

    /// Total model parameters.
    pub fn total_params(&self) -> u64 {
        self.num_layers as u64 * self.params_per_layer()
            + self.embedding_params()
            + self.lm_head_params()
    }

    /// Tokens per micro-batch of `b` sequences.
    pub fn tokens_per_micro_batch(&self, micro_batch_size: u64) -> u64 {
        micro_batch_size * self.seq_len
    }

    /// Tokens per global batch of `global_batch_size` sequences.
    pub fn tokens_per_global_batch(&self, global_batch_size: u64) -> u64 {
        global_batch_size * self.seq_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parameter_counts_are_in_expected_ranges() {
        let b = 1_000_000_000f64;
        let p7 = ModelSpec::llama2_7b().total_params() as f64 / b;
        let p32 = ModelSpec::llama2_32b().total_params() as f64 / b;
        let p70 = ModelSpec::llama2_70b().total_params() as f64 / b;
        let p110 = ModelSpec::llama2_110b().total_params() as f64 / b;
        assert!((6.0..8.5).contains(&p7), "7B preset got {p7}B");
        assert!((28.0..38.0).contains(&p32), "32B preset got {p32}B");
        assert!((62.0..80.0).contains(&p70), "70B preset got {p70}B");
        assert!((95.0..125.0).contains(&p110), "110B preset got {p110}B");
    }

    #[test]
    fn paper_layer_counts() {
        // Appendix A.1: the 32B model has 60 layers; Table 4 / footnote: the
        // 70B and 110B models have 80 layers.
        assert_eq!(ModelSpec::llama2_32b().num_layers, 60);
        assert_eq!(ModelSpec::llama2_70b().num_layers, 80);
        assert_eq!(ModelSpec::llama2_110b().num_layers, 80);
    }

    #[test]
    fn batch_of_64_sequences_is_256k_tokens() {
        // §7.1: "The global batch size is set as 64 by default, constituting
        // each batch with 256K tokens."
        let spec = ModelSpec::llama2_70b();
        assert_eq!(spec.tokens_per_global_batch(64), 64 * 4096);
        assert_eq!(spec.tokens_per_global_batch(64), 262_144);
    }

    #[test]
    fn preset_lookup_by_short_name() {
        assert_eq!(ModelSpec::preset("70B").unwrap().name, "llama2-70b");
        assert_eq!(ModelSpec::preset("llama2-32b").unwrap().num_layers, 60);
        assert!(ModelSpec::preset("gpt-17t").is_none());
    }

    #[test]
    fn gqa_reduces_attention_params() {
        let gqa = ModelSpec::llama2_70b();
        let mut mha = gqa.clone();
        mha.num_kv_heads = mha.num_heads;
        assert!(gqa.attention_params_per_layer() < mha.attention_params_per_layer());
    }
}
