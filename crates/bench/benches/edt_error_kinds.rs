//! Per-error-kind recall (beyond the paper): the synthetic EDT generators
//! record *which* kind of error each dirty cell carries (typo / format /
//! missing / violation — Raha's taxonomy), so we can break down what each
//! detector actually catches. Raha's pattern features excel at format
//! breaks; the LM sees typos through its character fallback.

use rotom::pipeline::{evaluate, prepare_base};
use rotom_baselines::raha::Raha;
use rotom_bench::{print_table, Suite};
use rotom_datasets::edt::{self, EdtFlavor, ErrorKind};
use rotom_meta::MetaTarget;

const KINDS: [(ErrorKind, &str); 4] = [
    (ErrorKind::Typo, "typo"),
    (ErrorKind::Format, "format"),
    (ErrorKind::Missing, "missing"),
    (ErrorKind::Violation, "violation"),
];

fn main() {
    let suite = Suite::from_env();
    println!(
        "EDT per-error-kind recall on the test tuples ({:?} scale)",
        suite.scale
    );

    for flavor in [EdtFlavor::Beers, EdtFlavor::Hospital] {
        let data = edt::generate(flavor, &suite.edt);
        let task = data.to_task();

        // Raha with 20 tuples.
        let raha = Raha::train(&data, 20, 0);

        // TinyLm fine-tuned on hard labels with the largest cell budget from
        // the pre-trained base of context seed 53. Both its per-kind recall
        // and its overall F1 come from this one model.
        let cfg = suite.rotom_for(task.kind);
        let base = prepare_base(&task, &cfg, 53);
        let budget = *suite.edt_budgets.last().unwrap();
        let train = task.sample_train_balanced(budget, 0);
        let mut model = base.instantiate(&cfg, 0);
        let items: Vec<rotom_meta::WeightedItem> = train
            .iter()
            .map(|e| rotom_meta::WeightedItem::hard(e.tokens.clone(), e.label, 2))
            .collect();
        let mut rng: rotom_rng::rngs::StdRng = rotom_rng::SeedableRng::seed_from_u64(1);
        for _ in 0..cfg.train.epochs {
            for chunk in items.chunks(cfg.train.batch_size) {
                model.weighted_loss_backward(chunk, true, &mut rng);
                model.optimizer_step();
            }
        }

        let mut header = vec!["Detector".to_string()];
        header.extend(KINDS.iter().map(|(_, n)| n.to_string()));
        header.push("overall F1".to_string());
        let mut rows = Vec::new();

        // Per-kind recall for both detectors over the test tuples.
        let mut raha_hits = [0usize; 4];
        let mut lm_hits = [0usize; 4];
        let mut totals = [0usize; 4];
        for &r in &data.test_rows {
            for c in 0..data.columns.len() {
                let Some(kind) = data.kinds[r][c] else {
                    continue;
                };
                let ki = KINDS.iter().position(|(k, _)| *k == kind).unwrap();
                totals[ki] += 1;
                if raha.predict(&data, r, c) {
                    raha_hits[ki] += 1;
                }
                let ex = {
                    let attr = &data.columns[c];
                    rotom_text::serialize::serialize_cell(
                        attr,
                        data.rows[r].get(attr).unwrap_or(""),
                    )
                };
                if model.predict(&ex) == 1 {
                    lm_hits[ki] += 1;
                }
            }
        }
        let fmt = |hits: &[usize; 4]| -> Vec<String> {
            KINDS
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    if totals[i] == 0 {
                        "-".to_string()
                    } else {
                        format!(
                            "{:.0}% ({}/{})",
                            100.0 * hits[i] as f32 / totals[i] as f32,
                            hits[i],
                            totals[i]
                        )
                    }
                })
                .collect()
        };
        let mut raha_row = vec!["Raha (20-tpl)".to_string()];
        raha_row.extend(fmt(&raha_hits));
        raha_row.push(format!("{:.1}", raha.evaluate(&data).f1 * 100.0));
        rows.push(raha_row);
        let mut lm_row = vec!["TinyLm fine-tuned".to_string()];
        lm_row.extend(fmt(&lm_hits));
        lm_row.push(format!("{:.1}", evaluate(&model, &task.test).1.f1 * 100.0));
        rows.push(lm_row);

        print_table(&format!("Per-kind recall: {}", data.name), &header, &rows);
    }
}
