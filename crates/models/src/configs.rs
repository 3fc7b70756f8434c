//! Model configurations used in the paper's evaluation (§6).

/// A transformer language-model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Display name.
    pub name: &'static str,
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden dimension `H`.
    pub hidden: usize,
    /// Sequence length `S` used in evaluation.
    pub seq: usize,
    /// Vocabulary size (for the embedding parameters).
    pub vocab: usize,
}

impl ModelConfig {
    /// GPT-2 8.3B (Megatron-LM), used for model and pipeline
    /// parallelism (§6.2/6.3): S = 1024, H = 3072.
    pub fn gpt2_8_3b() -> ModelConfig {
        ModelConfig {
            name: "GPT-2 8.3B",
            layers: 72,
            hidden: 3072,
            seq: 1024,
            vocab: 50257,
        }
    }

    /// GPT-3 175B, used for pipeline parallelism (§6.3): S = 2048,
    /// H = 12288.
    pub fn gpt3_175b() -> ModelConfig {
        ModelConfig {
            name: "GPT-3 175B",
            layers: 96,
            hidden: 12288,
            seq: 2048,
            vocab: 50257,
        }
    }

    /// Approximate parameter count: `12 L H^2` for transformer blocks
    /// plus the embedding matrix.
    pub fn params(&self) -> u64 {
        12 * self.layers as u64 * (self.hidden as u64).pow(2)
            + self.vocab as u64 * self.hidden as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_names() {
        let within = |cfg: ModelConfig, expected: f64| {
            let p = cfg.params() as f64;
            assert!(
                (p / expected - 1.0).abs() < 0.15,
                "{}: {p} vs {expected}",
                cfg.name
            );
        };
        within(ModelConfig::gpt2_8_3b(), 8.3e9);
        within(ModelConfig::gpt3_175b(), 175e9);
    }
}
