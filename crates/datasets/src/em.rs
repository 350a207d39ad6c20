//! Synthetic entity-matching benchmark generators.
//!
//! Each flavor mirrors one of the paper's five EM benchmarks (Table 6):
//! record pairs from two "sources" that render a shared latent entity with
//! different conventions and noise. Matching pairs render the *same* latent
//! entity; non-matching pairs are dominated by **hard negatives** — sibling
//! entities that agree on most surface tokens (same brand and product type,
//! or overlapping paper titles) exactly like the candidates a token-overlap
//! blocker produces.
//!
//! The three starred datasets also exist in a *dirty* variant where attribute
//! values are randomly misplaced into other attributes (the DeepMatcher/Ditto
//! dirty protocol).

use crate::perturb::{abbreviate, initial, jitter, pick, typo};
use crate::task::{TaskDataset, TaskKind};
use crate::words::*;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};
use rotom_text::example::Example;
use rotom_text::serialize::{serialize_pair, Record};
use std::cmp::Ordering;

/// A labeled candidate pair.
#[derive(Debug)]
pub struct LabeledPair {
    /// Record from source A.
    pub left: Record,
    /// Record from source B.
    pub right: Record,
    /// Ground truth: do the records refer to the same entity?
    pub is_match: bool,
}

/// The five EM benchmark flavors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmFlavor {
    /// Abt-Buy: product records, moderately noisy descriptions.
    AbtBuy,
    /// Amazon-Google: software/electronics products, heavy abbreviation —
    /// the hardest of the five.
    AmazonGoogle,
    /// DBLP-ACM: publication records, both sources clean — the easiest.
    DblpAcm,
    /// DBLP-Scholar: publications with a noisy Scholar side.
    DblpScholar,
    /// Walmart-Amazon: product records with misplaced model numbers.
    WalmartAmazon,
}

impl EmFlavor {
    /// All flavors in Table 6 order.
    pub const ALL: [EmFlavor; 5] = [
        EmFlavor::AmazonGoogle,
        EmFlavor::DblpAcm,
        EmFlavor::DblpScholar,
        EmFlavor::WalmartAmazon,
        EmFlavor::AbtBuy,
    ];

    /// Flavors that also ship a dirty variant (marked `*` in Table 6).
    pub const WITH_DIRTY: [EmFlavor; 3] = [
        EmFlavor::DblpAcm,
        EmFlavor::DblpScholar,
        EmFlavor::WalmartAmazon,
    ];

    /// Canonical dataset name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EmFlavor::AbtBuy => "Abt-Buy",
            EmFlavor::AmazonGoogle => "Amazon-Google",
            EmFlavor::DblpAcm => "DBLP-ACM",
            EmFlavor::DblpScholar => "DBLP-Scholar",
            EmFlavor::WalmartAmazon => "Walmart-Amazon",
        }
    }

    fn is_publication(self) -> bool {
        matches!(self, EmFlavor::DblpAcm | EmFlavor::DblpScholar)
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Number of latent entities to synthesize.
    pub num_entities: usize,
    /// Labeled pairs in the train pool.
    pub train_pairs: usize,
    /// Labeled pairs in the test set.
    pub test_pairs: usize,
    /// Emit the dirty variant (attribute misplacement).
    pub dirty: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            num_entities: 400,
            train_pairs: 1000,
            test_pairs: 300,
            dirty: false,
            seed: 42,
        }
    }
}

/// A generated EM dataset.
#[derive(Debug)]
pub struct EmDataset {
    /// Dataset name (flavor name, "-dirty" suffixed for dirty variants).
    pub name: String,
    /// Flavor this dataset was generated from.
    pub flavor: EmFlavor,
    /// Labeled pool the experiments sample train/valid sets from.
    pub train_pairs: Vec<LabeledPair>,
    /// Held-out test pairs.
    pub test_pairs: Vec<LabeledPair>,
}

impl EmDataset {
    /// Serialize into the common sequence-classification form
    /// (label 1 = match). All train-pool serializations double as the
    /// unlabeled corpus for InvDA / SSL.
    pub fn to_task(&self) -> TaskDataset {
        let ser = |p: &LabeledPair| serialize_pair(&p.left, &p.right);
        TaskDataset {
            name: self.name.clone(),
            kind: TaskKind::EntityMatching,
            num_classes: 2,
            train_pool: self
                .train_pairs
                .iter()
                .map(|p| Example::new(ser(p), p.is_match as usize))
                .collect(),
            test: self
                .test_pairs
                .iter()
                .map(|p| Example::new(ser(p), p.is_match as usize))
                .collect(),
            unlabeled: self.train_pairs.iter().map(ser).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Latent entities
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Entity {
    Product {
        brand: &'static str,
        adj: &'static str,
        ptype: &'static str,
        model: String,
        capacity: u32,
        unit: &'static str,
        color: &'static str,
        price: f32,
    },
    Paper {
        title: Vec<String>,
        authors: Vec<(&'static str, &'static str)>,
        venue: usize,
        year: u32,
    },
}

fn gen_product(rng: &mut StdRng) -> Entity {
    Entity::Product {
        brand: pick(BRANDS, rng),
        adj: pick(PRODUCT_ADJS, rng),
        ptype: pick(PRODUCT_TYPES, rng),
        model: format!(
            "{}{}-{}",
            char::from(b'a' + rng.random_range(0..26u8)),
            char::from(b'a' + rng.random_range(0..26u8)),
            rng.random_range(100..9999u32)
        ),
        capacity: [16u32, 32, 64, 128, 256, 512][rng.random_range(0..6usize)],
        unit: pick(UNITS, rng),
        color: pick(COLORS, rng),
        price: rng.random_range(10..900u32) as f32 + 0.99,
    }
}

fn gen_paper(rng: &mut StdRng) -> Entity {
    let len = rng.random_range(4..8usize);
    let mut title = Vec::with_capacity(len);
    for i in 0..len {
        if i > 0 && i % 2 == 0 && rng.random_bool(0.4) {
            title.push(pick(TITLE_GLUE, rng).to_string());
        } else {
            title.push(pick(TITLE_WORDS, rng).to_string());
        }
    }
    let n_auth = rng.random_range(1..4usize);
    let authors = (0..n_auth)
        .map(|_| (pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng)))
        .collect();
    Entity::Paper {
        title,
        authors,
        venue: rng.random_range(0..VENUES.len()),
        year: rng.random_range(1995..2021u32),
    }
}

/// A "sibling": a distinct entity sharing most surface features (the hard
/// negatives token-overlap blocking surfaces).
fn sibling(e: &Entity, rng: &mut StdRng) -> Entity {
    let mut s = e.clone();
    match &mut s {
        Entity::Product {
            adj,
            model,
            capacity,
            color,
            price,
            ..
        } => {
            // Same brand/type, different model — the classic near-duplicate.
            if rng.random_bool(0.6) {
                *adj = pick(PRODUCT_ADJS, rng);
            }
            *model = format!(
                "{}{}-{}",
                char::from(b'a' + rng.random_range(0..26u8)),
                char::from(b'a' + rng.random_range(0..26u8)),
                rng.random_range(100..9999u32)
            );
            if rng.random_bool(0.9) {
                *capacity = [16u32, 32, 64, 128, 256, 512][rng.random_range(0..6usize)];
            }
            if rng.random_bool(0.6) {
                *color = pick(COLORS, rng);
            }
            *price = jitter(*price, 0.4, rng);
        }
        Entity::Paper {
            title,
            year,
            authors,
            ..
        } => {
            // Perturb 2–4 title words plus the year and an author: a related
            // but different paper from the same area (what token-overlap
            // blocking surfaces).
            let n = rng.random_range(2..5usize).min(title.len());
            for _ in 0..n {
                let i = rng.random_range(0..title.len());
                title[i] = pick(TITLE_WORDS, rng).to_string();
            }
            *year = rng.random_range(1995..2021u32);
            if !authors.is_empty() {
                let i = rng.random_range(0..authors.len());
                authors[i] = (pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng));
            }
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Per-source rendering profile: the knobs that distinguish the two sources
/// of a flavor and set its difficulty.
struct RenderProfile {
    /// Probability of abbreviating the brand / venue.
    abbrev: f64,
    /// Probability of dropping the model number / year from the title field.
    drop_key: f64,
    /// Probability of introducing a typo into a name token.
    typo: f64,
    /// Probability of omitting an optional attribute entirely.
    drop_attr: f64,
    /// Use author initials (papers) / terse names (products).
    terse: bool,
}

fn profiles(flavor: EmFlavor) -> (RenderProfile, RenderProfile) {
    match flavor {
        EmFlavor::AbtBuy => (
            RenderProfile {
                abbrev: 0.05,
                drop_key: 0.05,
                typo: 0.02,
                drop_attr: 0.1,
                terse: false,
            },
            RenderProfile {
                abbrev: 0.15,
                drop_key: 0.15,
                typo: 0.05,
                drop_attr: 0.2,
                terse: true,
            },
        ),
        EmFlavor::AmazonGoogle => (
            RenderProfile {
                abbrev: 0.1,
                drop_key: 0.15,
                typo: 0.05,
                drop_attr: 0.15,
                terse: false,
            },
            RenderProfile {
                abbrev: 0.45,
                drop_key: 0.4,
                typo: 0.1,
                drop_attr: 0.4,
                terse: true,
            },
        ),
        EmFlavor::WalmartAmazon => (
            RenderProfile {
                abbrev: 0.1,
                drop_key: 0.1,
                typo: 0.04,
                drop_attr: 0.1,
                terse: false,
            },
            RenderProfile {
                abbrev: 0.25,
                drop_key: 0.25,
                typo: 0.06,
                drop_attr: 0.25,
                terse: true,
            },
        ),
        EmFlavor::DblpAcm => (
            RenderProfile {
                abbrev: 0.0,
                drop_key: 0.0,
                typo: 0.01,
                drop_attr: 0.0,
                terse: false,
            },
            RenderProfile {
                abbrev: 0.9,
                drop_key: 0.05,
                typo: 0.01,
                drop_attr: 0.05,
                terse: false,
            },
        ),
        EmFlavor::DblpScholar => (
            RenderProfile {
                abbrev: 0.0,
                drop_key: 0.0,
                typo: 0.01,
                drop_attr: 0.0,
                terse: false,
            },
            RenderProfile {
                abbrev: 0.7,
                drop_key: 0.25,
                typo: 0.05,
                drop_attr: 0.25,
                terse: true,
            },
        ),
    }
}

fn maybe_typo(s: &str, p: f64, rng: &mut StdRng) -> String {
    if rng.random_bool(p) {
        s.split_whitespace()
            .map(|w| {
                if rng.random_bool(0.5) {
                    typo(w, rng)
                } else {
                    w.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    } else {
        s.to_string()
    }
}

fn render(e: &Entity, p: &RenderProfile, rng: &mut StdRng) -> Record {
    match e {
        Entity::Product {
            brand,
            adj,
            ptype,
            model,
            capacity,
            unit,
            color,
            price,
        } => {
            let brand_str = if rng.random_bool(p.abbrev) {
                abbreviate(brand, rng)
            } else {
                brand.to_string()
            };
            let mut name = if p.terse {
                format!("{brand_str} {adj} {model} {ptype}")
            } else {
                format!("{brand_str} {adj} {ptype} {model}")
            };
            if rng.random_bool(p.drop_key) {
                name = name.replace(&format!(" {model}"), "");
            }
            let name = maybe_typo(&name, p.typo, rng);
            let mut attrs = vec![("title".to_string(), name)];
            if !rng.random_bool(p.drop_attr) {
                let desc = if p.terse {
                    format!("{capacity} {unit} {color}")
                } else {
                    format!("{adj} {color} {ptype} with {capacity} {unit}")
                };
                attrs.push(("description".to_string(), maybe_typo(&desc, p.typo, rng)));
            }
            if !rng.random_bool(p.drop_attr) {
                let price = if p.terse {
                    jitter(*price, 0.05, rng)
                } else {
                    *price
                };
                attrs.push(("price".to_string(), format!("{price:.2}")));
            }
            Record { attrs }
        }
        Entity::Paper {
            title,
            authors,
            venue,
            year,
        } => {
            let mut t = title.clone();
            if rng.random_bool(p.drop_key) && t.len() > 3 {
                t.truncate(t.len() - 1);
            }
            let title_str = maybe_typo(&t.join(" "), p.typo, rng);
            let authors_str = authors
                .iter()
                .map(|(f, l)| {
                    if p.terse {
                        format!("{} {l}", initial(f))
                    } else {
                        format!("{f} {l}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" , ");
            let (full, abbr) = VENUES[*venue];
            let venue_str = if rng.random_bool(p.abbrev) {
                abbr.to_string()
            } else {
                full.to_string()
            };
            let mut attrs = vec![
                ("title".to_string(), title_str),
                ("authors".to_string(), authors_str),
            ];
            if !rng.random_bool(p.drop_attr) {
                attrs.push(("venue".to_string(), venue_str));
            }
            if !rng.random_bool(p.drop_attr) {
                attrs.push(("year".to_string(), year.to_string()));
            }
            Record { attrs }
        }
    }
}

/// Misplace attributes (dirty protocol): move a random attribute's value
/// into another attribute and blank the source.
fn make_dirty(r: &mut Record, rng: &mut StdRng) {
    if r.attrs.len() < 2 || !rng.random_bool(0.35) {
        return;
    }
    let from = rng.random_range(0..r.attrs.len());
    let mut to = rng.random_range(0..r.attrs.len() - 1);
    if to >= from {
        to += 1;
    }
    let moved = std::mem::take(&mut r.attrs[from].1);
    let target = &mut r.attrs[to].1;
    if target.is_empty() {
        *target = moved;
    } else {
        *target = format!("{target} {moved}");
    }
}

// ---------------------------------------------------------------------------
// Dataset assembly
// ---------------------------------------------------------------------------

/// Fraction of pairs that are matches.
const POS_RATE: f32 = 0.3;
/// Fraction of negatives that are hard (sibling) negatives.
const HARD_NEG_RATE: f32 = 0.7;

/// Generate an EM dataset for `flavor` under `cfg`.
pub fn generate(flavor: EmFlavor, cfg: &EmConfig) -> EmDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ flavor_seed(flavor));
    let entities: Vec<Entity> = (0..cfg.num_entities)
        .map(|_| {
            if flavor.is_publication() {
                gen_paper(&mut rng)
            } else {
                gen_product(&mut rng)
            }
        })
        .collect();
    let (pa, pb) = profiles(flavor);

    let total = cfg.train_pairs + cfg.test_pairs;
    let n_pos = (total as f32 * POS_RATE).round() as usize;
    let n_neg = total - n_pos;
    let n_hard = (n_neg as f32 * HARD_NEG_RATE).round() as usize;

    let mut pairs: Vec<LabeledPair> = Vec::with_capacity(total);
    for i in 0..n_pos {
        let e = &entities[i % entities.len()];
        let mut left = render(e, &pa, &mut rng);
        let mut right = render(e, &pb, &mut rng);
        if cfg.dirty {
            make_dirty(&mut left, &mut rng);
            make_dirty(&mut right, &mut rng);
        }
        pairs.push(LabeledPair {
            left,
            right,
            is_match: true,
        });
    }
    for i in 0..n_neg {
        let e = &entities[(i * 7 + 3) % entities.len()];
        let other = if i < n_hard {
            sibling(e, &mut rng)
        } else {
            // Easy negative: an unrelated entity.
            entities[rng.random_range(0..entities.len())].clone()
        };
        let mut left = render(e, &pa, &mut rng);
        let mut right = render(&other, &pb, &mut rng);
        if cfg.dirty {
            make_dirty(&mut left, &mut rng);
            make_dirty(&mut right, &mut rng);
        }
        pairs.push(LabeledPair {
            left,
            right,
            is_match: false,
        });
    }
    rng.shuffle(&mut pairs);
    let test_pairs = pairs.split_off(cfg.train_pairs.min(pairs.len()));
    let name = if cfg.dirty {
        format!("{}-dirty", flavor.name())
    } else {
        flavor.name().to_string()
    };
    EmDataset {
        name,
        flavor,
        train_pairs: pairs,
        test_pairs,
    }
}

fn flavor_seed(flavor: EmFlavor) -> u64 {
    match flavor {
        EmFlavor::AbtBuy => 0x0ab,
        EmFlavor::AmazonGoogle => 0x0a9,
        EmFlavor::DblpAcm => 0xdac,
        EmFlavor::DblpScholar => 0xd5c,
        EmFlavor::WalmartAmazon => 0x3a1,
    }
}

// ---------------------------------------------------------------------------
// Blocking (token-overlap heuristics, §2.1)
// ---------------------------------------------------------------------------

/// All attribute-value tokens of a record, in attribute order (lowercased,
/// punctuation split — see [`rotom_text::tokenize`]). The shared core of
/// every lexical helper below; may contain duplicates.
fn attr_tokens(r: &Record) -> impl Iterator<Item = String> + '_ {
    r.attrs.iter().flat_map(|(_, v)| rotom_text::tokenize(v))
}

/// The *content tokens* of a record: attribute-value tokens longer than two
/// characters (drops "of"/"to"/lone punctuation), sorted and deduplicated.
/// This is the single token definition [`block_candidates`] and the
/// [`crate::blocking`] pipeline agree on, and the shape the pipeline indexes
/// and probes with.
pub fn content_token_list(r: &Record) -> Vec<String> {
    let mut toks: Vec<String> = attr_tokens(r).filter(|t| is_content_token(t)).collect();
    toks.sort_unstable();
    toks.dedup();
    toks
}

/// True if attribute-value token `tok` is a content token: longer than two
/// bytes.
pub(crate) fn is_content_token(tok: &str) -> bool {
    tok.len() > 2
}

/// Number of tokens two sorted deduplicated lists share (one merge pass).
fn shared_count(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The blocking phase of the EM workflow (§2.1: "the blocking phase
/// typically uses simple heuristics"): given two record collections, emit
/// candidate `(left_index, right_index)` pairs, in sorted order, sharing at
/// least `min_shared` content tokens. A brute-force loop over every pair:
/// the literal definition of token-overlap blocking, which the
/// [`crate::blocking`] pipeline scales to million-record collections.
///
/// `min_shared = 0` means *no blocking*: every pair shares at least zero
/// tokens, so the full cross product is emitted.
pub fn block_candidates(
    left: &[Record],
    right: &[Record],
    min_shared: usize,
) -> Vec<(usize, usize)> {
    let rt: Vec<Vec<String>> = right.iter().map(content_token_list).collect();
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        let lt = content_token_list(l);
        for (j, r) in rt.iter().enumerate() {
            if shared_count(&lt, r) >= min_shared {
                out.push((i, j));
            }
        }
    }
    out
}

/// Jaccard similarity over *all* attribute tokens of two records (unlike
/// the blocking helpers, short tokens count). Only tests call it: the
/// generator tests use it to check that matches share more tokens than
/// non-matches.
pub fn jaccard(left: &Record, right: &Record) -> f32 {
    use std::collections::HashSet;
    let a: HashSet<String> = attr_tokens(left).collect();
    let b: HashSet<String> = attr_tokens(right).collect();
    let inter = a.intersection(&b).count() as f32;
    let union = a.union(&b).count() as f32;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

// ---------------------------------------------------------------------------
// Corpus-scale streaming generator (blocking workloads)
// ---------------------------------------------------------------------------

/// Which of the two sources a corpus record is rendered for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorpusSide {
    /// Source A: clean rendering of the latent entity.
    Left,
    /// Source B: noisy rendering (typos, dropped tokens, dropped model).
    Right,
}

/// High-frequency filler tokens the stopword-injection knob draws from (all
/// longer than two characters, so they survive the content-token filter and
/// land in the blocking index — exactly the posting-list blowup IDF pruning
/// exists to kill).
pub const CORPUS_STOPWORDS: &[&str] =
    &["the", "with", "for", "and", "pro", "new", "series", "plus"];

/// Configuration of the corpus-scale generator ([`EmCorpus`]).
///
/// Unlike [`EmConfig`], which builds Table-6-sized labeled pair sets in
/// memory, this generator is *index-addressable*: record `i` of either side
/// is computed on demand from `split_seed(seed, i)`, so million-entity
/// corpora stream in bounded chunks with no up-front materialization.
#[derive(Debug)]
pub struct CorpusConfig {
    /// Number of latent entities; each renders one record per side, and
    /// `(i, i)` is the ground-truth match pair.
    pub num_entities: usize,
    /// Number of [`CORPUS_STOPWORDS`] appended to *every* record (0..=8).
    /// Non-zero values create tokens with document frequency equal to the
    /// corpus size — the IDF-pruning stress case.
    pub stopwords: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            num_entities: 10_000,
            stopwords: 0,
            seed: 0xb10c,
        }
    }
}

/// Streaming, index-addressable EM corpus: two record sources over shared
/// latent entities, cheap enough to emit 1M+ records.
#[derive(Debug)]
pub struct EmCorpus {
    cfg: CorpusConfig,
    words: Vec<String>,
}

/// Salt decorrelating the right side's noise stream from the latent stream.
const RIGHT_NOISE_SALT: u64 = 0x0b51_de00;

/// Build one synthetic body word: a unique syllable composition of `k`
/// (3 syllables below 24³, 4 above), always at least 6 characters so every
/// word survives the content-token filter.
fn corpus_word(k: usize) -> String {
    const SYL: [&str; 24] = [
        "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "na", "po", "qu", "ri", "so", "tu",
        "ve", "wa", "xi", "yo", "zu", "ar", "en", "is", "or",
    ];
    let n = SYL.len();
    let mut w = String::with_capacity(8);
    if k < n * n * n {
        w.push_str(SYL[k % n]);
        w.push_str(SYL[(k / n) % n]);
        w.push_str(SYL[(k / (n * n)) % n]);
    } else {
        let k = k - n * n * n;
        w.push_str(SYL[k % n]);
        w.push_str(SYL[(k / n) % n]);
        w.push_str(SYL[(k / (n * n)) % n]);
        w.push_str(SYL[(k / (n * n * n)) % n]);
    }
    w
}

impl EmCorpus {
    /// Build the corpus source (materializes only the word vocabulary; the
    /// records themselves are computed on demand).
    pub fn new(cfg: CorpusConfig) -> Self {
        assert!(cfg.num_entities > 0, "corpus needs at least one entity");
        assert!(
            cfg.stopwords <= CORPUS_STOPWORDS.len(),
            "at most {} stopwords available",
            CORPUS_STOPWORDS.len()
        );
        // Synthetic body-word vocabulary size. Per-token document frequency
        // scales as roughly `6 * num_entities / vocab_words`, which keeps
        // posting lists bounded at scale (the Table-6 generators' fixed word
        // lists would make every token a stopword at 1M records).
        let vocab_words = (cfg.num_entities / 16).max(1024);
        let words = (0..vocab_words).map(corpus_word).collect();
        Self { cfg, words }
    }

    /// Number of latent entities (= records per side).
    pub fn num_entities(&self) -> usize {
        self.cfg.num_entities
    }

    /// Render record `i` of `side`. Records `(Left, i)` and `(Right, i)`
    /// refer to the same latent entity; the right side adds rendering noise
    /// from an independent `split_seed` stream, so either side can be
    /// generated (in any chunking, on any worker) without the other.
    pub(crate) fn record(&self, side: CorpusSide, i: usize) -> Record {
        let mut latent = StdRng::seed_from_u64(split_seed(self.cfg.seed, i as u64));
        let w = |r: &mut StdRng, words: &[String]| words[r.random_range(0..words.len())].clone();
        let brand = w(&mut latent, &self.words);
        let w1 = w(&mut latent, &self.words);
        let mut w2 = Some(w(&mut latent, &self.words));
        let w3 = w(&mut latent, &self.words);
        let w4 = w(&mut latent, &self.words);
        let mut model = Some(format!(
            "{}{}-{}",
            char::from(b'a' + latent.random_range(0..26u8)),
            char::from(b'a' + latent.random_range(0..26u8)),
            latent.random_range(1000..999_999u32)
        ));
        // Capacity and unit fuse into one wide-range token ("412gb"): with
        // ~3600 distinct values its document frequency stays O(n/3600), so
        // the corpus has no organically high-df content token — stopword
        // pressure is opt-in via `cfg.stopwords`, which blocking-plane
        // benchmarks rely on to separate the pruning story from the base
        // recall story.
        let capacity = format!(
            "{}{}",
            latent.random_range(100..999u32),
            ["gb", "tb", "in", "watt"][latent.random_range(0..4usize)]
        );

        let mut title_words = vec![brand, w1];
        if side == CorpusSide::Right {
            let mut noise =
                StdRng::seed_from_u64(split_seed(self.cfg.seed ^ RIGHT_NOISE_SALT, i as u64));
            if noise.random_bool(0.15) {
                w2 = None;
            }
            if noise.random_bool(0.08) {
                model = None;
            }
            if noise.random_bool(0.10) {
                let k = noise.random_range(0..title_words.len());
                title_words[k] = typo(&title_words[k], &mut noise);
            }
        }
        if let Some(w2) = w2 {
            title_words.push(w2);
        }
        if let Some(model) = model {
            title_words.push(model);
        }
        let title = title_words.join(" ");
        let mut desc = format!("{w3} {w4} {capacity}");
        for stop in &CORPUS_STOPWORDS[..self.cfg.stopwords] {
            desc.push(' ');
            desc.push_str(stop);
        }
        Record {
            attrs: vec![
                ("title".to_string(), title),
                ("description".to_string(), desc),
            ],
        }
    }

    /// Render a contiguous chunk of records — the unit the streaming
    /// blocking pipeline ingests. Panics if the range exceeds
    /// [`num_entities`](Self::num_entities).
    pub fn chunk(&self, side: CorpusSide, range: std::ops::Range<usize>) -> Vec<Record> {
        assert!(range.end <= self.cfg.num_entities, "range past corpus end");
        range.map(|i| self.record(side, i)).collect()
    }

    /// Iterator over all of one side in chunks of `chunk_records` — the
    /// shape [`crate::blocking::stream_candidates`] consumes. Peak memory is
    /// one chunk.
    pub fn chunks(
        &self,
        side: CorpusSide,
        chunk_records: usize,
    ) -> impl Iterator<Item = Vec<Record>> + '_ {
        let n = self.cfg.num_entities;
        let step = chunk_records.max(1);
        (0..n.div_ceil(step)).map(move |c| self.chunk(side, c * step..((c + 1) * step).min(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> EmConfig {
        EmConfig {
            num_entities: 60,
            train_pairs: 120,
            test_pairs: 40,
            ..Default::default()
        }
    }

    #[test]
    fn sizes_match_config() {
        let d = generate(EmFlavor::AbtBuy, &quick_cfg());
        assert_eq!(d.train_pairs.len(), 120);
        assert_eq!(d.test_pairs.len(), 40);
    }

    #[test]
    fn positive_rate_respected() {
        let d = generate(EmFlavor::DblpAcm, &quick_cfg());
        let all: Vec<&LabeledPair> = d.train_pairs.iter().chain(&d.test_pairs).collect();
        let pos = all.iter().filter(|p| p.is_match).count();
        let rate = pos as f32 / all.len() as f32;
        assert!((rate - 0.3).abs() < 0.05, "positive rate {rate}");
    }

    #[test]
    fn matches_are_lexically_closer_than_nonmatches() {
        let d = generate(EmFlavor::DblpAcm, &quick_cfg());
        let avg = |m: bool| {
            let sel: Vec<f32> = d
                .train_pairs
                .iter()
                .filter(|p| p.is_match == m)
                .map(|p| jaccard(&p.left, &p.right))
                .collect();
            sel.iter().sum::<f32>() / sel.len() as f32
        };
        assert!(
            avg(true) > avg(false) + 0.1,
            "pos {} vs neg {}",
            avg(true),
            avg(false)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(EmFlavor::WalmartAmazon, &quick_cfg());
        let b = generate(EmFlavor::WalmartAmazon, &quick_cfg());
        assert_eq!(a.train_pairs.len(), b.train_pairs.len());
        assert_eq!(
            serialize_pair(&a.train_pairs[0].left, &a.train_pairs[0].right),
            serialize_pair(&b.train_pairs[0].left, &b.train_pairs[0].right)
        );
    }

    #[test]
    fn dirty_variant_misplaces_attributes() {
        let mut cfg = quick_cfg();
        cfg.dirty = true;
        let d = generate(EmFlavor::DblpAcm, &cfg);
        // Some records must have an empty attribute (the moved-out slot).
        let empties = d
            .train_pairs
            .iter()
            .flat_map(|p| p.left.attrs.iter().chain(&p.right.attrs))
            .filter(|(_, v)| v.is_empty())
            .count();
        assert!(
            empties > 0,
            "dirty variant produced no misplaced attributes"
        );
    }

    #[test]
    fn to_task_serializes_with_sep() {
        let d = generate(EmFlavor::AbtBuy, &quick_cfg());
        let t = d.to_task();
        assert_eq!(t.num_classes, 2);
        assert!(t.train_pool[0].tokens.contains(&"[SEP]".to_string()));
        assert_eq!(t.unlabeled.len(), t.train_pool.len());
    }

    /// Whether one pair of records shares at least `min_shared` content
    /// tokens.
    fn shares(left: &Record, right: &Record, min_shared: usize) -> bool {
        let one = std::slice::from_ref;
        !block_candidates(one(left), one(right), min_shared).is_empty()
    }

    #[test]
    fn blocking_passes_matches() {
        let d = generate(EmFlavor::DblpAcm, &quick_cfg());
        let passed = d
            .train_pairs
            .iter()
            .filter(|p| p.is_match)
            .filter(|p| shares(&p.left, &p.right, 1))
            .count();
        let total = d.train_pairs.iter().filter(|p| p.is_match).count();
        assert!(passed as f32 / total as f32 > 0.95);
    }

    #[test]
    fn blocking_candidates_are_sorted_nested_and_cross_at_zero() {
        let d = generate(EmFlavor::AbtBuy, &quick_cfg());
        let left: Vec<Record> = d
            .train_pairs
            .iter()
            .take(30)
            .map(|p| p.left.clone())
            .collect();
        let right: Vec<Record> = d
            .train_pairs
            .iter()
            .take(30)
            .map(|p| p.right.clone())
            .collect();
        // min_shared = 0 is documented as "no blocking": the full cross
        // product. Every threshold's output is strictly sorted, and raising
        // the threshold only drops pairs.
        let all = block_candidates(&left, &right, 0);
        assert_eq!(all.len(), left.len() * right.len());
        let mut prev = all;
        for min_shared in [1usize, 2, 3] {
            let pairs = block_candidates(&left, &right, min_shared);
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{min_shared}");
            assert!(pairs.len() < prev.len(), "{min_shared}");
            assert!(pairs.iter().all(|p| prev.binary_search(p).is_ok()));
            prev = pairs;
        }
    }

    #[test]
    fn blocking_recall_on_matches_is_high() {
        let d = generate(EmFlavor::DblpAcm, &quick_cfg());
        let matches: Vec<&LabeledPair> = d.train_pairs.iter().filter(|p| p.is_match).collect();
        let left: Vec<Record> = matches.iter().map(|p| p.left.clone()).collect();
        let right: Vec<Record> = matches.iter().map(|p| p.right.clone()).collect();
        let cands = block_candidates(&left, &right, 1);
        let recalled = (0..left.len()).filter(|&i| cands.contains(&(i, i))).count();
        assert!(recalled as f32 / left.len() as f32 > 0.95);
    }

    #[test]
    fn corpus_is_deterministic_and_chunkable() {
        let c = EmCorpus::new(CorpusConfig {
            num_entities: 200,
            ..Default::default()
        });
        // record() is index-addressable: any chunking yields the same rows.
        let whole = c.chunk(CorpusSide::Right, 0..200);
        let mut pieces = Vec::new();
        for chunk in c.chunks(CorpusSide::Right, 64) {
            pieces.extend(chunk);
        }
        assert_eq!(whole.len(), pieces.len());
        for (a, b) in whole.iter().zip(&pieces) {
            assert_eq!(a.attrs, b.attrs);
        }
        // And independent of the left side's generation.
        let again = c.record(CorpusSide::Right, 77);
        assert_eq!(again.attrs, whole[77].attrs);
    }

    #[test]
    fn corpus_match_pairs_overlap_heavily() {
        let c = EmCorpus::new(CorpusConfig {
            num_entities: 300,
            ..Default::default()
        });
        let mut blocked_pairs = 0usize;
        let mut jac = 0.0f32;
        for i in 0..300 {
            let l = c.record(CorpusSide::Left, i);
            let r = c.record(CorpusSide::Right, i);
            jac += jaccard(&l, &r);
            if shares(&l, &r, 2) {
                blocked_pairs += 1;
            }
        }
        assert!(jac / 300.0 > 0.5, "mean match jaccard {}", jac / 300.0);
        assert!(
            blocked_pairs as f32 / 300.0 > 0.95,
            "match blocking recall {blocked_pairs}/300"
        );
    }

    #[test]
    fn corpus_stopwords_reach_every_record() {
        let c = EmCorpus::new(CorpusConfig {
            num_entities: 50,
            stopwords: 3,
            ..Default::default()
        });
        for i in 0..50 {
            let toks = content_token_list(&c.record(CorpusSide::Left, i));
            for stop in &CORPUS_STOPWORDS[..3] {
                assert!(toks.iter().any(|t| t == stop), "record {i} missing {stop}");
            }
        }
        // Distinct body words stay distinct (unique syllable composition).
        assert_eq!(corpus_word(0), corpus_word(0));
        let mut seen = std::collections::HashSet::new();
        for k in 0..20_000 {
            assert!(seen.insert(corpus_word(k)), "collision at {k}");
        }
    }
}
