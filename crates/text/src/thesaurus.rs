//! Synonym lookup for `token_repl` / `token_insert`.
//!
//! The paper uses WordNet \[60\]; offline we ship a compact built-in thesaurus
//! whose groups cover the vocabulary of the synthetic benchmark generators
//! plus common English. Users can register additional synonym groups for
//! their own domains (mirroring Rotom's "users may add customized
//! transformations" extension point).

use std::collections::HashMap;

/// Built-in synonym groups. Every word in a group is a synonym of the others.
const BUILTIN_GROUPS: &[&[&str]] = &[
    // General English
    &["big", "large", "huge", "giant"],
    &["small", "little", "tiny", "compact"],
    &["fast", "quick", "rapid", "speedy"],
    &["slow", "sluggish", "gradual"],
    &["good", "great", "fine", "excellent"],
    &["bad", "poor", "terrible", "awful"],
    &["new", "novel", "recent", "modern"],
    &["old", "ancient", "vintage", "classic"],
    &["cheap", "inexpensive", "affordable", "budget"],
    &["expensive", "costly", "premium", "pricey"],
    &["buy", "purchase", "acquire", "order"],
    &["sell", "vend", "offer"],
    &["show", "display", "present", "exhibit"],
    &["find", "locate", "discover", "identify"],
    &["make", "build", "create", "construct"],
    &["use", "utilize", "employ", "apply"],
    &["help", "assist", "aid", "support"],
    &["start", "begin", "launch", "initiate"],
    &["stop", "halt", "end", "terminate"],
    &["happy", "glad", "pleased", "delighted"],
    &["sad", "unhappy", "gloomy"],
    &["love", "adore", "enjoy", "like"],
    &["hate", "dislike", "despise"],
    &["movie", "film", "picture"],
    &["book", "volume", "title"],
    &["car", "automobile", "vehicle"],
    &["house", "home", "residence"],
    &["city", "town", "municipality"],
    &["street", "road", "avenue"],
    &["phone", "telephone", "handset"],
    &["laptop", "notebook", "ultrabook"],
    &["computer", "pc", "workstation"],
    &["monitor", "display", "screen"],
    &["camera", "camcorder"],
    &["printer", "copier"],
    &["wireless", "cordless", "bluetooth"],
    &["portable", "mobile", "handheld"],
    &["digital", "electronic"],
    &["professional", "pro", "expert"],
    &["premium", "deluxe", "luxury"],
    &["standard", "regular", "basic"],
    &["black", "dark", "ebony"],
    &["white", "light", "ivory"],
    &["red", "crimson", "scarlet"],
    &["blue", "azure", "navy"],
    &["green", "emerald", "lime"],
    &["effective", "efficient", "productive"],
    &["relational", "tabular"],
    &["database", "databases", "datastore"],
    &["query", "queries", "lookup"],
    &["system", "systems", "platform"],
    &["analysis", "analytics", "evaluation"],
    &["learning", "training"],
    &["model", "models", "estimator"],
    &["approach", "method", "technique"],
    &["improved", "enhanced", "optimized"],
    &["distributed", "parallel", "decentralized"],
    &["scalable", "elastic"],
    &["stream", "streaming", "flow"],
    &["storage", "store", "repository"],
    &["index", "indexing", "catalog"],
    &["processing", "computation", "execution"],
    &["review", "rating", "feedback"],
    &["price", "cost", "rate"],
    &["restaurant", "diner", "eatery"],
    &["hotel", "inn", "lodge"],
    &["flight", "flights", "airfare"],
    &["ticket", "tickets", "fare"],
    &["weather", "forecast", "climate"],
    &["music", "songs", "audio"],
    &["play", "perform", "run"],
    &["news", "headlines", "stories"],
    &["game", "match", "contest"],
    &["team", "squad", "club"],
    &["player", "athlete"],
    &["election", "vote", "poll"],
    &["market", "exchange", "trading"],
    &["company", "firm", "corporation", "business"],
    &["stock", "share", "equity"],
    &["technology", "tech"],
    &["science", "research"],
    &["doctor", "physician", "clinician"],
    &["hospital", "clinic", "infirmary"],
    &["beer", "ale", "lager", "brew"],
    &["brewery", "brewhouse"],
    &["tax", "levy", "duty"],
    &["salary", "wage", "pay"],
    &["state", "province", "region"],
    &["where", "wherever"],
    &["what", "which"],
    &["excellent", "outstanding", "superb"],
    &["disappointing", "underwhelming", "mediocre"],
    &["battery", "cell", "powerpack"],
    &["charger", "adapter", "psu"],
    &["speaker", "loudspeaker"],
    &["headphones", "earphones", "headset"],
    &["keyboard", "keypad"],
    &["mouse", "trackball"],
    &["cable", "cord", "wire"],
    &["case", "cover", "shell", "sleeve"],
    &["bag", "pouch", "tote"],
    &["watch", "timepiece"],
];

/// A synonym dictionary.
#[derive(Debug, Default)]
pub struct Thesaurus {
    /// word → group index
    index: HashMap<String, usize>,
    groups: Vec<Vec<String>>,
}

impl Thesaurus {
    /// Empty thesaurus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The built-in thesaurus covering the synthetic benchmark vocabulary.
    pub fn builtin() -> Self {
        let mut t = Self::new();
        for group in BUILTIN_GROUPS {
            t.add_group(group.iter().map(|s| s.to_string()).collect());
        }
        t
    }

    /// Register a synonym group. Words already present keep their original
    /// group (first registration wins), mirroring WordNet's primary synset.
    pub(crate) fn add_group(&mut self, words: Vec<String>) {
        let gi = self.groups.len();
        let mut group = Vec::with_capacity(words.len());
        for w in words {
            self.index.entry(w.clone()).or_insert(gi);
            group.push(w);
        }
        self.groups.push(group);
    }

    /// Synonyms of `word`, excluding the word itself. Empty when unknown.
    pub fn synonyms(&self, word: &str) -> Vec<&str> {
        match self.index.get(word) {
            Some(&gi) => self.groups[gi]
                .iter()
                .map(|s| s.as_str())
                .filter(|&s| s != word)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Whether the word has at least one synonym.
    pub fn has_synonym(&self, word: &str) -> bool {
        !self.synonyms(word).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_common_words() {
        let t = Thesaurus::builtin();
        assert!(t.synonyms("fast").contains(&"quick"));
        assert!(t.synonyms("database").contains(&"databases"));
    }

    #[test]
    fn synonyms_exclude_self() {
        let t = Thesaurus::builtin();
        assert!(!t.synonyms("fast").contains(&"fast"));
    }

    #[test]
    fn unknown_word_has_no_synonyms() {
        let t = Thesaurus::builtin();
        assert!(t.synonyms("xylophone-q").is_empty());
        assert!(!t.has_synonym("xylophone-q"));
    }

    #[test]
    fn custom_groups_extend() {
        let mut t = Thesaurus::builtin();
        t.add_group(vec!["foo".into(), "bar".into()]);
        assert_eq!(t.synonyms("foo"), vec!["bar"]);
    }

    #[test]
    fn first_registration_wins() {
        let mut t = Thesaurus::new();
        t.add_group(vec!["a".into(), "b".into()]);
        t.add_group(vec!["a".into(), "c".into()]);
        assert_eq!(t.synonyms("a"), vec!["b"]);
        // "c" still resolves through its own group.
        assert_eq!(t.synonyms("c"), vec!["a"]);
    }
}
