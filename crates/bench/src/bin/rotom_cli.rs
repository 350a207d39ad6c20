//! `rotom-cli` — run any (dataset, method) combination from the command
//! line.
//!
//! ```sh
//! rotom_cli <dataset> <method> [budget] [seed]
//!
//! datasets: abt-buy amazon-google dblp-acm dblp-scholar walmart-amazon
//!           (append "-dirty" for the dirty EM variants)
//!           beers hospital movies rayyan tax
//!           ag am-2 am-5 atis snips sst-2 sst-5 trec
//! methods:  baseline mixda invda rotom rotom-ssl
//! ```

use rotom::{Method, RunResult};
use rotom_bench::Suite;
use rotom_datasets::{
    edt::{self, EdtFlavor},
    em::{self, EmConfig, EmFlavor},
    textcls::{self, TextClsFlavor},
    TaskDataset, TaskKind,
};
use std::process::ExitCode;

fn parse_dataset(name: &str, suite: &Suite) -> Option<TaskDataset> {
    let lower = name.to_lowercase();
    let (em_name, dirty) = match lower.strip_suffix("-dirty") {
        Some(base) => (base.to_string(), true),
        None => (lower.clone(), false),
    };
    let em_flavor = match em_name.as_str() {
        "abt-buy" => Some(EmFlavor::AbtBuy),
        "amazon-google" => Some(EmFlavor::AmazonGoogle),
        "dblp-acm" => Some(EmFlavor::DblpAcm),
        "dblp-scholar" => Some(EmFlavor::DblpScholar),
        "walmart-amazon" => Some(EmFlavor::WalmartAmazon),
        _ => None,
    };
    if let Some(f) = em_flavor {
        let cfg = EmConfig {
            dirty,
            ..suite.em.clone()
        };
        return Some(em::generate(f, &cfg).to_task());
    }
    let edt_flavor = match lower.as_str() {
        "beers" => Some(EdtFlavor::Beers),
        "hospital" => Some(EdtFlavor::Hospital),
        "movies" => Some(EdtFlavor::Movies),
        "rayyan" => Some(EdtFlavor::Rayyan),
        "tax" => Some(EdtFlavor::Tax),
        _ => None,
    };
    if let Some(f) = edt_flavor {
        return Some(edt::generate(f, &suite.edt).to_task());
    }
    let text_flavor = match lower.as_str() {
        "ag" => Some(TextClsFlavor::Ag),
        "am-2" => Some(TextClsFlavor::Am2),
        "am-5" => Some(TextClsFlavor::Am5),
        "atis" => Some(TextClsFlavor::Atis),
        "snips" => Some(TextClsFlavor::Snips),
        "sst-2" => Some(TextClsFlavor::Sst2),
        "sst-5" => Some(TextClsFlavor::Sst5),
        "trec" => Some(TextClsFlavor::Trec),
        _ => None,
    };
    text_flavor.map(|f| textcls::generate(f, &suite.textcls))
}

fn parse_method(name: &str) -> Option<Method> {
    match name.to_lowercase().as_str() {
        "baseline" | "tinylm" => Some(Method::Baseline),
        "mixda" => Some(Method::MixDa),
        "invda" => Some(Method::InvDa),
        "rotom" => Some(Method::Rotom),
        "rotom-ssl" | "rotom+ssl" | "ssl" => Some(Method::RotomSsl),
        _ => None,
    }
}

fn report(task: &TaskDataset, r: &RunResult) {
    println!("dataset : {}", r.dataset);
    println!("method  : {}", r.method);
    println!("train   : {} labeled examples", r.train_size);
    println!("accuracy: {:.2}%", r.accuracy * 100.0);
    if task.num_classes == 2 {
        println!(
            "P/R/F1  : {:.2} / {:.2} / {:.2}",
            r.prf1.precision, r.prf1.recall, r.prf1.f1
        );
    }
    println!("time    : {:.1}s", r.train_seconds);
}

/// An optional positional number: `default` when absent, `None` when
/// malformed.
fn number<T: std::str::FromStr>(arg: Option<&String>, default: T) -> Option<T> {
    arg.map_or(Some(default), |s| s.parse().ok())
}

const USAGE: &str = "usage: rotom_cli <dataset> <method> [budget] [seed]\n\
                     run with an unknown dataset name to list the options";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(2..=4).contains(&args.len()) {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (Some(budget), Some(seed)) = (number(args.get(2), 200usize), number(args.get(3), 0u64))
    else {
        eprintln!("budget and seed must be non-negative integers\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let suite = Suite::from_env();
    let task = match parse_dataset(&args[0], &suite) {
        Some(t) => t,
        None => {
            eprintln!(
                "unknown dataset '{}'; choose from: abt-buy amazon-google dblp-acm \
                 dblp-scholar walmart-amazon (+ -dirty), beers hospital movies rayyan tax, \
                 ag am-2 am-5 atis snips sst-2 sst-5 trec",
                args[0]
            );
            return ExitCode::FAILURE;
        }
    };
    let method = match parse_method(&args[1]) {
        Some(m) => m,
        None => {
            eprintln!(
                "unknown method '{}'; choose from: baseline mixda invda rotom rotom-ssl",
                args[1]
            );
            return ExitCode::FAILURE;
        }
    };

    let ctx = suite.prepare(&task, seed);
    let balanced = task.kind == TaskKind::ErrorDetection;
    let avg = suite.run_avg(&task, budget, method, &ctx, balanced);
    report(&task, &avg.results[0]);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::number;

    #[test]
    fn malformed_numbers_are_rejected_not_defaulted() {
        assert_eq!(number(None, 200usize), Some(200));
        assert_eq!(number(Some(&"120".to_string()), 200usize), Some(120));
        for bad in ["abc", "-1", "1.5", ""] {
            assert_eq!(number(Some(&bad.to_string()), 0u64), None, "{bad}");
        }
    }
}
