//! Synthetic dataset generators.
//!
//! Substitution note: the paper's demo trains on features
//! extracted from real PDFs. We generate a synthetic corpus with the same
//! *shape* — documents of pages, each page carrying text-derived features
//! and a `first_page` label — so the training/inference/feedback loops
//! exercise identical code paths deterministically.

use crate::matrix::Matrix;
use crate::model::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Isotropic Gaussian blobs: `k` classes, `d` dims, centers `spread` apart.
pub fn gaussian_blobs(n: usize, d: usize, k: usize, spread: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..d).map(|_| rng.gen_range(-spread..spread)).collect())
        .collect();
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % k;
        let row: Vec<f64> = centers[c].iter().map(|&m| m + gauss(&mut rng)).collect();
        rows.push(row);
        y.push(c);
    }
    Dataset {
        x: Matrix::from_rows(rows),
        y,
        n_classes: k,
    }
}

/// Box–Muller standard normal.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Page-level features for the document-intelligence task (paper Fig. 3/5):
/// the classifier predicts whether a page is the *first page* of a
/// document, from features a featurization stage would extract.
#[derive(Debug, Clone, PartialEq)]
pub struct PageFeatures {
    /// Fraction of lines that look like headings.
    pub heading_density: f64,
    /// Whether a page number was detected.
    pub has_page_number: bool,
    /// Normalised text length.
    pub text_len: f64,
    /// Fraction of lines in title case.
    pub title_case_ratio: f64,
    /// OCR confidence proxy (1.0 for born-digital TXT).
    pub ocr_confidence: f64,
}

impl PageFeatures {
    /// Feature vector (fixed order, length 5).
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.heading_density,
            self.has_page_number as u8 as f64,
            self.text_len,
            self.title_case_ratio,
            self.ocr_confidence,
        ]
    }

    /// Dimensionality of [`PageFeatures::to_vec`].
    pub const DIM: usize = 5;
}

/// Generate plausible features for a page, conditioned on whether it is a
/// document's first page. First pages have more headings, more title case,
/// less body text.
pub fn synth_page_features(is_first: bool, source_is_ocr: bool, rng: &mut StdRng) -> PageFeatures {
    let noise = |rng: &mut StdRng| gauss(rng) * 0.08;
    if is_first {
        PageFeatures {
            heading_density: (0.55 + noise(rng)).clamp(0.0, 1.0),
            has_page_number: rng.gen_bool(0.3),
            text_len: (0.35 + noise(rng)).clamp(0.0, 1.0),
            title_case_ratio: (0.6 + noise(rng)).clamp(0.0, 1.0),
            ocr_confidence: if source_is_ocr {
                (0.75 + noise(rng)).clamp(0.0, 1.0)
            } else {
                1.0
            },
        }
    } else {
        PageFeatures {
            heading_density: (0.12 + noise(rng)).clamp(0.0, 1.0),
            has_page_number: rng.gen_bool(0.85),
            text_len: (0.8 + noise(rng)).clamp(0.0, 1.0),
            title_case_ratio: (0.18 + noise(rng)).clamp(0.0, 1.0),
            ocr_confidence: if source_is_ocr {
                (0.75 + noise(rng)).clamp(0.0, 1.0)
            } else {
                1.0
            },
        }
    }
}

/// Build a labeled first-page classification dataset of `n` pages.
pub fn first_page_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let is_first = rng.gen_bool(0.25);
        let is_ocr = rng.gen_bool(0.4);
        rows.push(synth_page_features(is_first, is_ocr, &mut rng).to_vec());
        y.push(is_first as usize);
    }
    Dataset {
        x: Matrix::from_rows(rows),
        y,
        n_classes: 2,
    }
}

/// Inject label poisoning: flip the labels of the first `frac` of rows —
/// used by the paper's "post-hoc governance" scenario (§4: "detecting a
/// poisoned dataset").
pub fn poison_labels(ds: &mut Dataset, frac: f64) -> usize {
    let n = ((ds.len() as f64) * frac) as usize;
    for label in ds.y.iter_mut().take(n) {
        *label = (*label + 1) % ds.n_classes;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_determinism() {
        let a = gaussian_blobs(30, 4, 3, 2.0, 9);
        assert_eq!(a.len(), 30);
        assert_eq!(a.x.cols, 4);
        assert_eq!(a.n_classes, 3);
        let b = gaussian_blobs(30, 4, 3, 2.0, 9);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn blobs_balanced_classes() {
        let ds = gaussian_blobs(30, 2, 3, 2.0, 1);
        for c in 0..3 {
            assert_eq!(ds.y.iter().filter(|&&y| y == c).count(), 10);
        }
    }

    #[test]
    fn first_page_dataset_is_learnable_shape() {
        let ds = first_page_dataset(200, 3);
        assert_eq!(ds.x.cols, PageFeatures::DIM);
        let firsts = ds.y.iter().filter(|&&y| y == 1).count();
        assert!(firsts > 20 && firsts < 120, "firsts={firsts}");
        // First pages should have higher mean heading density.
        let mean = |label: usize, col: usize| {
            let rows: Vec<usize> = (0..ds.len()).filter(|&i| ds.y[i] == label).collect();
            rows.iter().map(|&i| ds.x.get(i, col)).sum::<f64>() / rows.len() as f64
        };
        assert!(mean(1, 0) > mean(0, 0) + 0.2);
    }

    #[test]
    fn features_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let f = synth_page_features(true, true, &mut rng);
            for v in f.to_vec() {
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn poisoning_flips_expected_count() {
        let mut ds = first_page_dataset(100, 7);
        let orig = ds.y.clone();
        let flipped = poison_labels(&mut ds, 0.2);
        assert_eq!(flipped, 20);
        let actually: usize = orig.iter().zip(&ds.y).filter(|(a, b)| a != b).count();
        assert_eq!(actually, 20);
    }
}
