//! Property suite for `Pattern::canonical_hash()`.
//!
//! The plan cache of the serving layer keys compiled plans on the
//! canonical hash, so two properties carry the whole feature: every
//! member of an isomorphism class (random relabelings) hashes
//! identically, and non-isomorphic catalogue patterns
//! hash differently. Randomness is a seeded xorshift so the suite is a
//! deterministic replay.

use benu_pattern::{queries, Pattern, PatternVertex};

/// Deterministic xorshift64* — no RNG dependency needed for a shuffle.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn permutation(&mut self, n: usize) -> Vec<PatternVertex> {
        let mut perm: Vec<PatternVertex> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

/// The bundled patterns the issue names: q1–q6, cliques, stars.
fn suite() -> Vec<(String, Pattern)> {
    let mut out = vec![
        ("q1".to_string(), queries::q1()),
        ("q2".to_string(), queries::q2()),
        ("q3".to_string(), queries::q3()),
        ("q4".to_string(), queries::q4()),
        ("q5".to_string(), queries::q5()),
        ("q6".to_string(), queries::q6()),
    ];
    for k in 3..=6 {
        out.push((format!("clique{k}"), queries::clique(k)));
        out.push((format!("star{k}"), queries::star(k)));
    }
    out
}

#[test]
fn every_relabeling_hashes_identically() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for (name, p) in suite() {
        let expected_hash = p.canonical_hash();
        let expected_form = p.canonical_form().pattern;
        for round in 0..20 {
            let perm = rng.permutation(p.num_vertices());
            let image = p.relabeled(&perm);
            assert!(p.is_isomorphic(&image), "{name}: relabeling is an iso");
            assert_eq!(
                image.canonical_hash(),
                expected_hash,
                "{name} round {round}: relabeled image must hash identically"
            );
            assert_eq!(
                image.canonical_form().pattern,
                expected_form,
                "{name} round {round}: canonical forms must be byte-identical"
            );
        }
    }
}

#[test]
fn non_isomorphic_pairs_hash_differently() {
    let patterns = suite();
    for (i, (a_name, a)) in patterns.iter().enumerate() {
        for (b_name, b) in patterns.iter().skip(i + 1) {
            if a.is_isomorphic(b) {
                assert_eq!(
                    a.canonical_hash(),
                    b.canonical_hash(),
                    "{a_name} vs {b_name}: isomorphic duplicates in the suite must agree"
                );
            } else {
                assert_ne!(
                    a.canonical_hash(),
                    b.canonical_hash(),
                    "{a_name} vs {b_name}: non-isomorphic patterns must differ"
                );
            }
        }
    }
}

#[test]
fn placement_maps_canonical_embeddings_back() {
    // The serving layer relies on `placement` to translate embeddings of
    // the cached canonical plan into the submitted numbering.
    let mut rng = XorShift(42);
    for (name, p) in suite() {
        let perm = rng.permutation(p.num_vertices());
        let image = p.relabeled(&perm);
        let canon = image.canonical_form();
        assert!(
            canon.pattern.is_isomorphism_to(&image, &canon.placement),
            "{name}: placement must be an isomorphism canonical -> input"
        );
    }
}
