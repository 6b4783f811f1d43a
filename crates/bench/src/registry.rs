//! Table 2: the algorithm inventory.

/// One algorithm of the evaluation (Table 2 of the paper, plus the
//  baselines and extensions this repository adds).
/// Descriptor of an implemented algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmEntry {
    /// Paper abbreviation.
    pub abbreviation: &'static str,
    /// Full name as in Table 2.
    pub name: &'static str,
    /// Where it lives in this workspace.
    pub module: &'static str,
    /// Whether the paper's Table 2 lists it (the rest are baselines /
    /// extensions reproduced from other sections).
    pub in_table2: bool,
}

/// The full registry.
pub fn algorithms() -> Vec<AlgorithmEntry> {
    vec![
        AlgorithmEntry {
            abbreviation: "Det",
            name: "Deterministic",
            module: "presky_exact::det",
            in_table2: true,
        },
        AlgorithmEntry {
            abbreviation: "Det+",
            name: "Deterministic with data preprocessing",
            module: "presky_query::engine (full Prepare, forced exact)",
            in_table2: true,
        },
        AlgorithmEntry {
            abbreviation: "Sam",
            name: "Monte Carlo sampling",
            module: "presky_approx::sampler",
            in_table2: true,
        },
        AlgorithmEntry {
            abbreviation: "Sam+",
            name: "Sampling with data preprocessing",
            module: "presky_query::engine (full Prepare, forced sampling)",
            in_table2: true,
        },
        AlgorithmEntry {
            abbreviation: "Sac",
            name: "Independent object dominance (Sacharidis et al.)",
            module: "presky_approx::sac",
            in_table2: false,
        },
        AlgorithmEntry {
            abbreviation: "A1",
            name: "Tentative: top-k important objects",
            module: "presky_approx::a1",
            in_table2: false,
        },
        AlgorithmEntry {
            abbreviation: "A2",
            name: "Tentative: truncated inclusion-exclusion",
            module: "presky_approx::a2",
            in_table2: false,
        },
        AlgorithmEntry {
            abbreviation: "KL",
            name: "Karp-Luby importance sampling (extension)",
            module: "presky_approx::karp_luby",
            in_table2: false,
        },
        AlgorithmEntry {
            abbreviation: "Naive",
            name: "Sample-space enumeration (ground truth)",
            module: "presky_exact::naive",
            in_table2: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_the_papers_four() {
        let t2: Vec<&str> =
            algorithms().into_iter().filter(|a| a.in_table2).map(|a| a.abbreviation).collect();
        assert_eq!(t2, vec!["Det", "Det+", "Sam", "Sam+"]);
    }

    #[test]
    fn abbreviations_are_unique() {
        let mut abbrs: Vec<&str> = algorithms().into_iter().map(|a| a.abbreviation).collect();
        let total = abbrs.len();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), total);
    }
}
