//! Synthetic text-classification benchmark generators.
//!
//! Eight flavors mirroring Table 7: same class counts and class semantics,
//! generated from per-class template grammars with shared connective
//! vocabulary (so classes overlap lexically and the task is learnable but
//! not trivial at low resource).

use crate::perturb::pick;
use crate::task::{shuffle, TaskDataset, TaskKind};
use crate::words::*;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::Example;
use rotom_text::tokenize;

/// The eight TextCLS flavors of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextClsFlavor {
    /// AG news topics (4 classes).
    Ag,
    /// Amazon review sentiment, binary.
    Am2,
    /// Amazon review sentiment, 5 stars.
    Am5,
    /// Airline reservation intents (24 classes).
    Atis,
    /// Voice-assistant intents (7 classes).
    Snips,
    /// Movie review sentiment, binary.
    Sst2,
    /// Movie review sentiment, 5 grades.
    Sst5,
    /// Open-domain question intents (6 classes).
    Trec,
}

impl TextClsFlavor {
    /// All flavors in Table 7 order.
    pub const ALL: [TextClsFlavor; 8] = [
        TextClsFlavor::Ag,
        TextClsFlavor::Am2,
        TextClsFlavor::Am5,
        TextClsFlavor::Atis,
        TextClsFlavor::Snips,
        TextClsFlavor::Sst2,
        TextClsFlavor::Sst5,
        TextClsFlavor::Trec,
    ];

    /// Canonical dataset name.
    pub fn name(self) -> &'static str {
        match self {
            TextClsFlavor::Ag => "AG",
            TextClsFlavor::Am2 => "AM-2",
            TextClsFlavor::Am5 => "AM-5",
            TextClsFlavor::Atis => "ATIS",
            TextClsFlavor::Snips => "SNIPS",
            TextClsFlavor::Sst2 => "SST-2",
            TextClsFlavor::Sst5 => "SST-5",
            TextClsFlavor::Trec => "TREC",
        }
    }

    /// Number of classes (Table 7).
    pub fn num_classes(self) -> usize {
        match self {
            TextClsFlavor::Ag => 4,
            TextClsFlavor::Am2 | TextClsFlavor::Sst2 => 2,
            TextClsFlavor::Am5 | TextClsFlavor::Sst5 => 5,
            TextClsFlavor::Atis => 24,
            TextClsFlavor::Snips => 7,
            TextClsFlavor::Trec => 6,
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TextClsConfig {
    /// Size of the train pool (experiments sample 100–500 from it).
    pub train_pool: usize,
    /// Test-set size.
    pub test: usize,
    /// Extra unlabeled sequences for InvDA / SSL.
    pub unlabeled: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TextClsConfig {
    fn default() -> Self {
        Self {
            train_pool: 1200,
            test: 400,
            unlabeled: 800,
            seed: 21,
        }
    }
}

/// Generate a TextCLS dataset for `flavor` under `cfg`.
pub fn generate(flavor: TextClsFlavor, cfg: &TextClsConfig) -> TaskDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (flavor as u64) << 16);
    let k = flavor.num_classes();
    let total = cfg.train_pool + cfg.test + cfg.unlabeled;
    let mut examples: Vec<Example> = Vec::with_capacity(total);
    for i in 0..total {
        let class = i % k;
        let text = render(flavor, class, &mut rng);
        examples.push(Example::new(tokenize(&text), class));
    }
    shuffle(&mut examples, &mut rng);
    let mut train_pool = examples;
    let mut rest = train_pool.split_off(cfg.train_pool);
    let test = rest.split_off(rest.len() - cfg.test.min(rest.len()));
    let unlabeled = rest.into_iter().map(|e| e.tokens).collect();
    TaskDataset {
        name: flavor.name().to_string(),
        kind: TaskKind::TextClassification,
        num_classes: k,
        train_pool,
        test,
        unlabeled,
    }
}

// ---------------------------------------------------------------------------
// Per-flavor grammars
// ---------------------------------------------------------------------------

fn render(flavor: TextClsFlavor, class: usize, rng: &mut StdRng) -> String {
    match flavor {
        TextClsFlavor::Ag => ag(class, rng),
        TextClsFlavor::Am2 => review(class, 2, false, rng),
        TextClsFlavor::Am5 => review(class, 5, false, rng),
        TextClsFlavor::Sst2 => review(class, 2, true, rng),
        TextClsFlavor::Sst5 => review(class, 5, true, rng),
        TextClsFlavor::Trec => trec(class, rng),
        TextClsFlavor::Atis => atis(class, rng),
        TextClsFlavor::Snips => snips(class, rng),
    }
}

fn ag(class: usize, rng: &mut StdRng) -> String {
    let topic = AG_TOPIC_WORDS[class];
    let w1 = pick(topic, rng);
    let w2 = pick(topic, rng);
    let verbs = [
        "announces",
        "reports",
        "faces",
        "plans",
        "confirms",
        "reveals",
        "warns of",
    ];
    let v = pick(&verbs, rng);
    match rng.random_range(0..3u8) {
        0 => format!("{w1} {v} new {w2} move"),
        1 => format!("officials say {w1} {v} record {w2} this week"),
        _ => format!("{w1} and {w2} in focus as analysts weigh outlook"),
    }
}

/// Graded sentiment reviews. `movie` selects movie-domain nouns; otherwise
/// product-domain. Binary uses the strong halves of the pools; 5-class maps
/// star → intensity band, with class `k/2` rendered as mixed.
fn review(class: usize, k: usize, movie: bool, rng: &mut StdRng) -> String {
    let noun_pool: Vec<&str> = if movie {
        REVIEW_NOUNS[..10].to_vec()
    } else {
        REVIEW_NOUNS[10..].to_vec()
    };
    let noun = noun_pool[rng.random_range(0..noun_pool.len())];
    let noun2 = noun_pool[rng.random_range(0..noun_pool.len())];
    let subject = if movie { "this film" } else { "this product" };

    let band = |adjs: &[&str], strong: bool, rng: &mut StdRng| -> String {
        let half = adjs.len() / 2;
        let slice = if strong { &adjs[half..] } else { &adjs[..half] };
        slice[rng.random_range(0..slice.len())].to_string()
    };

    let (positive, strong, mixed) = if k == 2 {
        (class == 1, true, false)
    } else {
        match class {
            0 => (false, true, false),
            1 => (false, false, false),
            2 => (true, false, true),
            3 => (true, false, false),
            _ => (true, true, false),
        }
    };

    if mixed {
        let p = band(POS_ADJS, false, rng);
        let n = band(NEG_ADJS, false, rng);
        return format!("the {noun} was {p} but the {noun2} felt {n} overall");
    }
    let adj = if positive {
        band(POS_ADJS, strong, rng)
    } else {
        band(NEG_ADJS, strong, rng)
    };
    match rng.random_range(0..4u8) {
        0 => format!("the {noun} of {subject} is {adj}"),
        1 => format!("{subject} has a truly {adj} {noun}"),
        2 => format!("i found the {noun} {adj} and the {noun2} memorable"),
        _ => format!(
            "{adj} {noun} , would {} recommend",
            if positive { "definitely" } else { "not" }
        ),
    }
}

fn trec(class: usize, rng: &mut StdRng) -> String {
    let city = pick(CITIES, rng);
    let first = pick(FIRST_NAMES, rng);
    let last = pick(LAST_NAMES, rng);
    let thing = pick(PRODUCT_TYPES, rng);
    let field = pick(MEDICAL_FIELDS, rng);
    match class {
        // abbreviation
        0 => match rng.random_range(0..2u8) {
            0 => format!("what does the abbreviation {} stand for", pick(STATES, rng)),
            _ => format!(
                "what is the full form of {}",
                pick(&["cpu", "dna", "nasa", "fbi", "sql"], rng)
            ),
        },
        // entity
        1 => match rng.random_range(0..3u8) {
            0 => format!("what {thing} won the award last year"),
            1 => format!("which {} is used in {field}", pick(PRODUCT_TYPES, rng)),
            _ => format!("what breed of dog is the largest"),
        },
        // description
        2 => match rng.random_range(0..3u8) {
            0 => format!("what is {field}"),
            1 => format!("why do people in {city} celebrate the festival"),
            _ => format!("how does a {thing} work"),
        },
        // human
        3 => match rng.random_range(0..3u8) {
            0 => format!("who is {first} {last}"),
            1 => format!("who invented the {thing}"),
            _ => format!("which scientist discovered {field}"),
        },
        // location
        4 => match rng.random_range(0..3u8) {
            0 => format!("where is the {} bowl", pick(COLORS, rng)),
            1 => format!("where is {city} located"),
            _ => format!("what city hosts the {} festival", pick(MOVIE_WORDS, rng)),
        },
        // numeric
        _ => match rng.random_range(0..3u8) {
            0 => format!("how many people live in {city}"),
            1 => format!("when was the {thing} invented"),
            _ => format!("how much does a {thing} cost"),
        },
    }
}

/// 24 ATIS-style airline intents.
fn atis(class: usize, rng: &mut StdRng) -> String {
    let a = pick(CITIES, rng);
    let b = pick(CITIES, rng);
    let day = pick(
        &[
            "monday",
            "tuesday",
            "wednesday",
            "thursday",
            "friday",
            "saturday",
            "sunday",
        ],
        rng,
    );
    let airline = pick(
        &[
            "united",
            "delta",
            "american",
            "alaska",
            "jetblue",
            "southwest",
        ],
        rng,
    );
    let aircraft = pick(
        &["boeing 737", "airbus a320", "embraer 175", "boeing 757"],
        rng,
    );
    match class {
        0 => format!("show me flights from {a} to {b} on {day}"),
        1 => format!("what is the airfare from {a} to {b}"),
        2 => format!("what ground transportation is available in {a}"),
        3 => format!("which airlines fly from {a} to {b}"),
        4 => format!("what does fare code q mean"),
        5 => format!("what type of aircraft is used from {a} to {b}"),
        6 => format!("what time does the flight from {a} arrive"),
        7 => format!("how many flights does {airline} have from {a}"),
        8 => format!("how far is the airport from downtown {a}"),
        9 => format!("what cities does {airline} serve"),
        10 => format!("which airport is closest to {a}"),
        11 => format!("what is the seating capacity of the {aircraft}"),
        12 => format!("what is the flight number from {a} to {b} on {day}"),
        13 => format!("what meals are served on the flight to {b}"),
        14 => format!("what are the restrictions on the cheapest fare to {b}"),
        15 => format!("how much is the taxi fare from the {a} airport"),
        16 => format!("what day of the week do flights from {a} to {b} operate"),
        17 => format!("show me the cheapest flight from {a} to {b}"),
        18 => format!("show me flights and fares from {a} to {b}"),
        19 => format!("i would like to book a round trip from {a} to {b}"),
        20 => format!("cancel my reservation from {a} to {b} on {day}"),
        21 => format!("what is the earliest nonstop flight leaving {a}"),
        22 => format!("does {airline} offer first class from {a} to {b}"),
        _ => format!("list the departure times of all flights to {b} on {day}"),
    }
}

/// 7 SNIPS-style voice-assistant intents.
fn snips(class: usize, rng: &mut StdRng) -> String {
    let artist = format!("{} {}", pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng));
    let city = pick(CITIES, rng);
    let movie = format!("the {} {}", pick(MOVIE_WORDS, rng), pick(MOVIE_WORDS, rng));
    let n = rng.random_range(1..6u8);
    match class {
        0 => format!("add this song by {artist} to my workout playlist"),
        1 => format!("book a table for {n} at a restaurant in {city}"),
        2 => format!("what is the weather forecast for {city} tomorrow"),
        3 => format!("play some music by {artist}"),
        4 => format!("rate this book {n} out of 5 stars"),
        5 => format!("find the creative work called {movie}"),
        _ => format!("what movies are playing at the {city} theater tonight"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_table7() {
        assert_eq!(TextClsFlavor::Ag.num_classes(), 4);
        assert_eq!(TextClsFlavor::Atis.num_classes(), 24);
        assert_eq!(TextClsFlavor::Snips.num_classes(), 7);
        assert_eq!(TextClsFlavor::Trec.num_classes(), 6);
    }

    #[test]
    fn generated_sizes_match_config() {
        let cfg = TextClsConfig {
            train_pool: 100,
            test: 30,
            unlabeled: 50,
            seed: 1,
        };
        let d = generate(TextClsFlavor::Trec, &cfg);
        assert_eq!(d.train_pool.len(), 100);
        assert_eq!(d.test.len(), 30);
        assert_eq!(d.unlabeled.len(), 50);
    }

    #[test]
    fn all_classes_present_in_pool() {
        let cfg = TextClsConfig {
            train_pool: 240,
            test: 48,
            unlabeled: 0,
            seed: 2,
        };
        for flavor in TextClsFlavor::ALL {
            let d = generate(flavor, &cfg);
            for c in 0..d.num_classes {
                assert!(
                    d.train_pool.iter().any(|e| e.label == c),
                    "{}: class {c} missing",
                    d.name
                );
            }
        }
    }

    #[test]
    fn labels_within_range() {
        let cfg = TextClsConfig::default();
        let d = generate(TextClsFlavor::Atis, &cfg);
        assert!(d.train_pool.iter().all(|e| e.label < 24));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TextClsConfig {
            train_pool: 50,
            test: 10,
            unlabeled: 0,
            seed: 9,
        };
        let a = generate(TextClsFlavor::Sst5, &cfg);
        let b = generate(TextClsFlavor::Sst5, &cfg);
        assert_eq!(a.train_pool[0], b.train_pool[0]);
    }

    #[test]
    fn sentiment_classes_use_different_polarity_words() {
        let cfg = TextClsConfig {
            train_pool: 200,
            test: 0,
            unlabeled: 0,
            seed: 3,
        };
        let d = generate(TextClsFlavor::Am2, &cfg);
        let text_of = |label: usize| {
            d.train_pool
                .iter()
                .filter(|e| e.label == label)
                .flat_map(|e| e.tokens.iter().cloned())
                .collect::<Vec<_>>()
        };
        let neg = text_of(0);
        let pos = text_of(1);
        assert!(pos.iter().any(|t| POS_ADJS.contains(&t.as_str())));
        assert!(neg.iter().any(|t| NEG_ADJS.contains(&t.as_str())));
        // Strong positive adjectives never appear in negative reviews.
        assert!(!neg
            .iter()
            .any(|t| POS_ADJS[POS_ADJS.len() / 2..].contains(&t.as_str())));
    }
}
