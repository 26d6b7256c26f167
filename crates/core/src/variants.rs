//! Algorithm variants (Table III of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The two expansion strategies of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Topology-oriented expansion (Algorithm 2).
    ToE,
    /// Keyword-oriented expansion (Algorithm 6).
    KoE,
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmKind::ToE => write!(f, "ToE"),
            AlgorithmKind::KoE => write!(f, "KoE"),
        }
    }
}

/// Configuration of a search run: the expansion strategy plus switches for
/// each group of pruning rules, matching the variant notation of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantConfig {
    /// Expansion strategy.
    pub kind: AlgorithmKind,
    /// Distance-based pruning (Pruning Rules 1, 2 and 3). Disabled in the
    /// `\D` variants.
    pub use_distance_pruning: bool,
    /// kbound-based pruning (Pruning Rule 4). Disabled in the `\B` variants.
    pub use_kbound_pruning: bool,
    /// Prime-route-based pruning (Pruning Rule 5 and the prime filtering of
    /// results). Disabled in ToE\P; KoE cannot disable it (its expansion is
    /// formulated on prime routes).
    pub use_prime_pruning: bool,
    /// Take KoE's jumps from shortest door paths computed without
    /// exclusions, and recompute only the paths that break regularity
    /// (KoE*).
    pub use_precomputed_paths: bool,
    /// Keep expanding stamps that already reached the terminal partition
    /// (ablation of the connect heuristic of Algorithm 5; off by default to
    /// follow the paper's pseudocode).
    pub strict_terminal_expansion: bool,
    /// Upper bound on the number of stamps expanded before the search gives
    /// up and returns the routes found so far. Used to bound ToE\P and the
    /// exhaustive baseline, which otherwise explode combinatorially.
    pub expansion_budget: Option<u64>,
}

impl VariantConfig {
    fn base(kind: AlgorithmKind) -> Self {
        VariantConfig {
            kind,
            use_distance_pruning: true,
            use_kbound_pruning: true,
            use_prime_pruning: true,
            use_precomputed_paths: false,
            strict_terminal_expansion: false,
            expansion_budget: None,
        }
    }

    /// ToE with all pruning rules.
    pub fn toe() -> Self {
        Self::base(AlgorithmKind::ToE)
    }

    /// KoE with all pruning rules.
    pub fn koe() -> Self {
        Self::base(AlgorithmKind::KoE)
    }

    /// ToE\D: no distance-based pruning (Rules 1–3).
    pub fn toe_no_distance() -> Self {
        VariantConfig {
            use_distance_pruning: false,
            ..Self::toe()
        }
    }

    /// ToE\B: no kbound-based pruning (Rule 4).
    pub fn toe_no_kbound() -> Self {
        VariantConfig {
            use_kbound_pruning: false,
            ..Self::toe()
        }
    }

    /// ToE\P: no prime-route-based pruning (Rule 5). An expansion budget
    /// (default 2 million stamps) bounds the otherwise exponential search.
    pub fn toe_no_prime() -> Self {
        VariantConfig {
            use_prime_pruning: false,
            expansion_budget: Some(2_000_000),
            ..Self::toe()
        }
    }

    /// KoE\D: no distance-based pruning (Rules 1–3).
    pub fn koe_no_distance() -> Self {
        VariantConfig {
            use_distance_pruning: false,
            ..Self::koe()
        }
    }

    /// KoE\B: no kbound-based pruning (Rule 4).
    pub fn koe_no_kbound() -> Self {
        VariantConfig {
            use_kbound_pruning: false,
            ..Self::koe()
        }
    }

    /// KoE*: KoE taking its jumps from shortest routes between doors
    /// computed without exclusions.
    pub fn koe_star() -> Self {
        VariantConfig {
            use_precomputed_paths: true,
            ..Self::koe()
        }
    }

    /// The seven comparable methods of Table III, in the order the paper
    /// lists them.
    pub fn all_variants() -> Vec<VariantConfig> {
        vec![
            Self::toe(),
            Self::toe_no_distance(),
            Self::toe_no_kbound(),
            Self::koe(),
            Self::koe_no_distance(),
            Self::koe_no_kbound(),
            Self::koe_star(),
        ]
    }

    /// Sets an expansion budget.
    pub fn with_expansion_budget(mut self, budget: u64) -> Self {
        self.expansion_budget = Some(budget);
        self
    }

    /// Enables the strict terminal-expansion ablation.
    pub fn with_strict_terminal_expansion(mut self) -> Self {
        self.strict_terminal_expansion = true;
        self
    }

    /// The label used in the paper's figures (Table III notation).
    pub fn label(&self) -> String {
        let base = self.kind.to_string();
        if self.use_precomputed_paths {
            return format!("{base}*");
        }
        if !self.use_distance_pruning {
            return format!("{base}\\D");
        }
        if !self.use_kbound_pruning {
            return format!("{base}\\B");
        }
        if !self.use_prime_pruning {
            return format!("{base}\\P");
        }
        base
    }
}

impl Default for VariantConfig {
    fn default() -> Self {
        Self::toe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table_iii() {
        assert_eq!(VariantConfig::toe().label(), "ToE");
        assert_eq!(VariantConfig::toe_no_distance().label(), "ToE\\D");
        assert_eq!(VariantConfig::toe_no_kbound().label(), "ToE\\B");
        assert_eq!(VariantConfig::toe_no_prime().label(), "ToE\\P");
        assert_eq!(VariantConfig::koe().label(), "KoE");
        assert_eq!(VariantConfig::koe_no_distance().label(), "KoE\\D");
        assert_eq!(VariantConfig::koe_no_kbound().label(), "KoE\\B");
        assert_eq!(VariantConfig::koe_star().label(), "KoE*");
        assert_eq!(AlgorithmKind::ToE.to_string(), "ToE");
        assert_eq!(AlgorithmKind::KoE.to_string(), "KoE");
    }

    #[test]
    fn variant_flags() {
        assert!(!VariantConfig::toe_no_distance().use_distance_pruning);
        assert!(VariantConfig::toe_no_distance().use_prime_pruning);
        assert!(!VariantConfig::toe_no_kbound().use_kbound_pruning);
        assert!(!VariantConfig::toe_no_prime().use_prime_pruning);
        assert!(VariantConfig::toe_no_prime().expansion_budget.is_some());
        assert!(VariantConfig::koe_star().use_precomputed_paths);
        assert_eq!(VariantConfig::all_variants().len(), 7);
        assert_eq!(VariantConfig::default().label(), "ToE");
    }

    #[test]
    fn builder_helpers() {
        let v = VariantConfig::toe()
            .with_expansion_budget(10)
            .with_strict_terminal_expansion();
        assert_eq!(v.expansion_budget, Some(10));
        assert!(v.strict_terminal_expansion);
    }
}
