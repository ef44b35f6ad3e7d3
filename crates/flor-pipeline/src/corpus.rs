//! Synthetic document corpus: the stand-in for the demo's PDF folder.
//!
//! Substitution: the paper's PDF Parser splits real PDFs
//! into per-page text/images. We synthesise "PDF files" that each
//! concatenate several logical documents; every page gets generated text
//! whose *surface features* (headings, page numbers, body density) encode
//! whether it starts a logical document. The ML task is exactly the demo's:
//! predict `first_page`, from which page colors (document segmentation,
//! Fig. 6) derive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a page's text was obtained (Fig. 3: "OCR" or "TXT").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextSrc {
    /// Optical character recognition (noisy).
    Ocr,
    /// Born-digital text (clean).
    Txt,
}

impl TextSrc {
    /// Display form matching the paper's `text_src` values.
    pub fn as_str(&self) -> &'static str {
        match self {
            TextSrc::Ocr => "OCR",
            TextSrc::Txt => "TXT",
        }
    }
}

/// One synthetic page.
#[derive(Debug, Clone)]
pub struct Page {
    /// Rendered text content.
    pub text: String,
    /// Extraction source.
    pub source: TextSrc,
    /// Ground truth: does this page start a logical document?
    pub is_first: bool,
    /// Ground truth: logical document index within the PDF (the
    /// `page_color` of Fig. 6).
    pub color: usize,
}

/// One synthetic "PDF file" (a concatenation of logical documents).
#[derive(Debug, Clone)]
pub struct PdfFile {
    /// File name (`case_007.pdf`).
    pub name: String,
    /// Pages in order.
    pub pages: Vec<Page>,
}

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of PDF files.
    pub n_pdfs: usize,
    /// Logical documents per PDF (upper bound).
    pub max_docs_per_pdf: usize,
    /// Pages per logical document (upper bound).
    pub max_pages_per_doc: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_pdfs: 6,
            max_docs_per_pdf: 3,
            max_pages_per_doc: 4,
            seed: 42,
        }
    }
}

/// The corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All PDF files.
    pub pdfs: Vec<PdfFile>,
}

const TITLE_WORDS: &[&str] = &[
    "Motion",
    "Order",
    "Petition",
    "Declaration",
    "Summary",
    "Report",
    "Exhibit",
    "Notice",
];
const BODY_WORDS: &[&str] = &[
    "the",
    "court",
    "finds",
    "that",
    "party",
    "pursuant",
    "to",
    "section",
    "evidence",
    "submitted",
    "on",
    "record",
    "hearing",
    "date",
    "filed",
    "county",
    "case",
    "defendant",
];

/// Generate a corpus deterministically from `cfg`.
pub fn generate(cfg: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pdfs = Vec::with_capacity(cfg.n_pdfs);
    for p in 0..cfg.n_pdfs {
        let n_docs = rng.gen_range(1..=cfg.max_docs_per_pdf.max(1));
        let mut pages = Vec::new();
        for color in 0..n_docs {
            let n_pages = rng.gen_range(1..=cfg.max_pages_per_doc.max(1));
            for page_in_doc in 0..n_pages {
                let is_first = page_in_doc == 0;
                let source = if rng.gen_bool(0.4) {
                    TextSrc::Ocr
                } else {
                    TextSrc::Txt
                };
                let text = render_page(is_first, page_in_doc, source, &mut rng);
                pages.push(Page {
                    text,
                    source,
                    is_first,
                    color,
                });
            }
        }
        pdfs.push(PdfFile {
            name: format!("case_{p:03}.pdf"),
            pages,
        });
    }
    Corpus { pdfs }
}

/// Render page text whose surface features reflect `is_first`.
fn render_page(is_first: bool, page_in_doc: usize, source: TextSrc, rng: &mut StdRng) -> String {
    let mut lines = Vec::new();
    if is_first {
        // First pages: big title block, several headings, sparse body.
        let title = format!(
            "{} OF THE {}",
            TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())].to_uppercase(),
            TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())].to_uppercase()
        );
        lines.push(title);
        for _ in 0..rng.gen_range(2..5) {
            lines.push(format!(
                "Section {}: {}",
                rng.gen_range(1..9),
                TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())]
            ));
        }
        for _ in 0..rng.gen_range(2..6) {
            lines.push(body_line(rng));
        }
    } else {
        // Continuation pages: dense body, a page number footer.
        for _ in 0..rng.gen_range(8..16) {
            lines.push(body_line(rng));
        }
        if rng.gen_bool(0.9) {
            lines.push(format!("Page {}", page_in_doc + 1));
        }
    }
    let mut text = lines.join("\n");
    if source == TextSrc::Ocr {
        text = ocr_noise(&text, rng);
    }
    text
}

fn body_line(rng: &mut StdRng) -> String {
    let n = rng.gen_range(6..14);
    let words: Vec<&str> = (0..n)
        .map(|_| BODY_WORDS[rng.gen_range(0..BODY_WORDS.len())])
        .collect();
    words.join(" ")
}

/// Corrupt ~2% of characters the way cheap OCR does.
fn ocr_noise(text: &str, rng: &mut StdRng) -> String {
    text.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() && rng.gen_bool(0.02) {
                match rng.gen_range(0..3) {
                    0 => '0',
                    1 => 'l',
                    _ => '~',
                }
            } else {
                c
            }
        })
        .collect()
}

/// Extracted page features (the output of the featurize stage).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedFeatures {
    /// Lines that look like headings (short, title/upper case).
    pub headings: usize,
    /// Whether a `Page N` footer was found.
    pub has_page_number: bool,
    /// Total lines.
    pub lines: usize,
    /// Mean line length.
    pub mean_line_len: f64,
    /// Fraction of heading-like lines.
    pub heading_density: f64,
}

impl ExtractedFeatures {
    /// Fixed-order feature vector for model input (length 5).
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.heading_density,
            self.has_page_number as u8 as f64,
            (self.lines as f64 / 20.0).min(1.0),
            (self.mean_line_len / 80.0).min(1.0),
            (self.headings as f64 / 6.0).min(1.0),
        ]
    }

    /// Dimensionality of [`ExtractedFeatures::to_vec`].
    pub const DIM: usize = 5;
}

/// The featurizer: `analyze_text` from Fig. 3.
pub fn analyze_text(text: &str) -> ExtractedFeatures {
    let lines: Vec<&str> = text.lines().collect();
    let mut headings = 0usize;
    let mut has_page_number = false;
    let mut total_len = 0usize;
    for line in &lines {
        total_len += line.len();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Page-number footer: `Page N`.
        if let Some(rest) = trimmed.strip_prefix("Page ") {
            if rest.chars().all(|c| c.is_ascii_digit()) && !rest.is_empty() {
                has_page_number = true;
                continue;
            }
        }
        // Heading-like: short line starting uppercase (titles and
        // `Section N:` lines; body sentences start lowercase).
        let starts_upper = trimmed.chars().next().is_some_and(char::is_uppercase);
        let is_short = trimmed.len() < 45;
        if starts_upper && is_short {
            headings += 1;
        }
    }
    let n = lines.len().max(1);
    ExtractedFeatures {
        headings,
        has_page_number,
        lines: lines.len(),
        mean_line_len: total_len as f64 / n as f64,
        heading_density: headings as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.pdfs.len(), b.pdfs.len());
        for (pa, pb) in a.pdfs.iter().zip(&b.pdfs) {
            assert_eq!(pa.name, pb.name);
            assert_eq!(pa.pages.len(), pb.pages.len());
            for (x, y) in pa.pages.iter().zip(&pb.pages) {
                assert_eq!(x.text, y.text);
            }
        }
    }

    #[test]
    fn every_pdf_starts_with_a_first_page() {
        let corpus = generate(&CorpusConfig::default());
        for pdf in &corpus.pdfs {
            assert!(pdf.pages[0].is_first, "{}", pdf.name);
            assert_eq!(pdf.pages[0].color, 0);
        }
    }

    #[test]
    fn colors_are_cumsum_of_first_pages() {
        // The Fig. 6 invariant: color == cumsum(first_page) - 1.
        let corpus = generate(&CorpusConfig {
            n_pdfs: 10,
            ..Default::default()
        });
        for pdf in &corpus.pdfs {
            let mut acc = 0usize;
            for page in &pdf.pages {
                if page.is_first {
                    acc += 1;
                }
                assert_eq!(page.color, acc - 1);
            }
        }
    }

    #[test]
    fn features_separate_first_pages() {
        let corpus = generate(&CorpusConfig {
            n_pdfs: 20,
            seed: 7,
            ..Default::default()
        });
        let mut first_density = Vec::new();
        let mut rest_density = Vec::new();
        for pdf in &corpus.pdfs {
            for page in &pdf.pages {
                let f = analyze_text(&page.text);
                if page.is_first {
                    first_density.push(f.heading_density);
                } else {
                    rest_density.push(f.heading_density);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&first_density) > mean(&rest_density) + 0.2,
            "first {} vs rest {}",
            mean(&first_density),
            mean(&rest_density)
        );
    }

    #[test]
    fn page_number_detection() {
        let f = analyze_text("the court finds that\nPage 3");
        assert!(f.has_page_number);
        let f2 = analyze_text("Page three");
        assert!(!f2.has_page_number);
    }

    #[test]
    fn ocr_pages_marked() {
        let corpus = generate(&CorpusConfig {
            n_pdfs: 30,
            seed: 3,
            ..Default::default()
        });
        let ocr = corpus
            .pdfs
            .iter()
            .flat_map(|p| &p.pages)
            .filter(|pg| pg.source == TextSrc::Ocr)
            .count();
        let total: usize = corpus.pdfs.iter().map(|p| p.pages.len()).sum();
        assert!(ocr > total / 5, "ocr {ocr}/{total}");
        assert!(ocr < total, "ocr {ocr}/{total}");
    }

    #[test]
    fn feature_vec_bounded() {
        let corpus = generate(&CorpusConfig::default());
        for pdf in &corpus.pdfs {
            for page in &pdf.pages {
                for v in analyze_text(&page.text).to_vec() {
                    assert!((0.0..=1.0).contains(&v), "{v}");
                }
            }
        }
    }
}
