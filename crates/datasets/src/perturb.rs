//! Surface-level string perturbations used by the generators.
//!
//! Two distinct purposes:
//!
//! * **Rendering noise** — the same latent entity rendered by two "sources"
//!   differs in conventions (abbreviations, initials, reformatted numbers).
//!   This is what makes synthetic EM non-trivial.
//! * **Error injection** — EDT datasets corrupt clean cells with typos,
//!   format breaks, and violations, following Raha's error taxonomy.

use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;

/// Introduce a single character-level typo (swap / delete / duplicate /
/// replace). Words shorter than 3 chars are returned unchanged.
pub fn typo(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() < 3 {
        return word.to_string();
    }
    let mut out = chars.clone();
    let i = rng.random_range(1..out.len() - 1);
    match rng.random_range(0..4u8) {
        0 => out.swap(i, i - 1),
        1 => {
            out.remove(i);
        }
        2 => out.insert(i, out[i]),
        _ => out[i] = char::from(b'a' + rng.random_range(0..26u8)),
    }
    out.into_iter().collect()
}

/// Abbreviate: keep the first 3–4 characters (e.g. "corporation" → "corp").
pub fn abbreviate(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() <= 4 {
        return word.to_string();
    }
    let keep = rng.random_range(3..=4usize);
    chars.into_iter().take(keep).collect()
}

/// Reduce a first name to an initial with a period ("james" → "j.").
pub fn initial(word: &str) -> String {
    match word.chars().next() {
        Some(c) => format!("{c}."),
        None => String::new(),
    }
}

/// Random US-style phone number in one of several formats.
pub fn phone(rng: &mut StdRng, formatted: bool) -> String {
    let a = rng.random_range(200..1000u32);
    let b = rng.random_range(200..1000u32);
    let c = rng.random_range(0..10000u32);
    if formatted {
        format!("({a}) {b}-{c:04}")
    } else {
        format!("{a}{b}{c:04}")
    }
}

/// Corrupt a phone string: drop a digit or strip formatting.
pub fn break_phone(phone: &str, rng: &mut StdRng) -> String {
    let digits: String = phone.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() > 4 && rng.random_bool(0.5) {
        // Drop a digit (truncation error).
        digits[..digits.len() - 1].to_string()
    } else {
        // Mangle one digit.
        typo(&digits, rng)
    }
}

/// Random 5-digit zip code as a string.
pub fn zip(rng: &mut StdRng) -> String {
    format!("{:05}", rng.random_range(10000..99999u32))
}

/// Jitter a numeric value by up to ±`pct` percent, keeping one decimal.
pub fn jitter(value: f32, pct: f32, rng: &mut StdRng) -> f32 {
    let delta = rng.random_range(-pct..=pct);
    ((value * (1.0 + delta)) * 10.0).round() / 10.0
}

/// Squash whitespace out of a multi-word string ("1600 amphitheatre pkwy" →
/// "1600amphitheatrepkwy") — a formatting error seen in the paper's Table 2.
pub fn squash(s: &str) -> String {
    s.split_whitespace().collect()
}

/// Pick one element of a non-empty slice.
pub fn pick<'a, T: ?Sized>(items: &'a [&'a T], rng: &mut StdRng) -> &'a T {
    items[rng.random_range(0..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn typo_changes_word() {
        let mut r = rng();
        let mut changed = 0;
        for _ in 0..20 {
            if typo("amphitheatre", &mut r) != "amphitheatre" {
                changed += 1;
            }
        }
        assert!(changed >= 15);
    }

    #[test]
    fn typo_preserves_short_words() {
        let mut r = rng();
        assert_eq!(typo("ab", &mut r), "ab");
    }

    #[test]
    fn abbreviate_shortens() {
        let mut r = rng();
        let a = abbreviate("corporation", &mut r);
        assert!(a.len() <= 4 && "corporation".starts_with(&a));
    }

    #[test]
    fn initial_is_one_letter_dot() {
        assert_eq!(initial("james"), "j.");
    }

    #[test]
    fn phone_formats() {
        let mut r = rng();
        let f = phone(&mut r, true);
        assert!(f.starts_with('('));
        let u = phone(&mut r, false);
        assert!(u.chars().all(|c| c.is_ascii_digit()));
        assert_eq!(u.len(), 10);
    }

    #[test]
    fn break_phone_differs_in_digits() {
        let mut r = rng();
        let original = "(866) 246-6453";
        let broken = break_phone(original, &mut r);
        let orig_digits: String = original.chars().filter(|c| c.is_ascii_digit()).collect();
        assert_ne!(broken, orig_digits);
    }

    #[test]
    fn squash_removes_spaces() {
        assert_eq!(squash("1600 amphitheatre pkwy"), "1600amphitheatrepkwy");
    }

    #[test]
    fn jitter_bounded() {
        let mut r = rng();
        for _ in 0..50 {
            let v = jitter(100.0, 0.1, &mut r);
            assert!((89.9..=110.1).contains(&v));
        }
    }
}
