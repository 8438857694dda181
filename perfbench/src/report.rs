//! Printing a run: one human-readable line per metric, then the result
//! line as one JSON object.

use crate::run::Outcome;

/// One line per metric: name, value, unit, and the sample count where
/// the value summarizes several samples.
pub fn metric_lines(prefix: &str, outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .iter()
        .map(|m| {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            format!("{prefix}{:<40} {:>16.4} {}{samples}", m.name, m.value, m.unit)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// as `{"value": .., "unit": ..}`, each name prefixed by its run's prefix.
pub fn result_json(runs: &[(String, Outcome)]) -> String {
    let attempted: usize = runs.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = runs.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<String> = runs
        .iter()
        .flat_map(|(prefix, o)| {
            o.metrics.iter().map(move |m| {
                format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metrics.push(crate::run::Metric {
            name: "op_ms.p50".into(),
            value: 1.25,
            unit: "ms",
            samples: Some(3),
        });
        o.metrics.push(crate::run::Metric {
            name: "x".into(),
            value: 0.0,
            unit: "ratio",
            samples: None,
        });
        assert_eq!(
            result_json(&[(String::new(), o)]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
