//! `BENCHMARK.json`, the one place the metric names, units, directions and
//! regression bounds are written down. The harness reads them from there,
//! so what it prints and gates on cannot drift from what the file says.

use crate::json::{parse, Value};
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"better": "lower"`.
    pub lower_is_better: bool,
    /// The share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDef {
    pub fn better(&self) -> &'static str {
        if self.lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }

    /// By what share of `before` the metric got worse going to `after`
    /// (negative when it got better).
    pub fn worsening(&self, before: f64, after: f64) -> f64 {
        if self.lower_is_better {
            (after - before) / before
        } else {
            (before - after) / before
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric(v: &Value) -> Result<MetricDef, String> {
    let text = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a metric has no `{key}`"))
    };
    let name = text("name")?;
    let lower_is_better = match text("better")?.as_str() {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("{name}: `better` is `{other}`")),
    };
    Ok(MetricDef {
        unit: text("unit")?,
        lower_is_better,
        bound: v.get("bound").and_then(Value::as_f64),
        name,
    })
}

pub fn from_text(text: &str) -> Result<Manifest, String> {
    let doc = parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("no list `{key}`"))
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(metric)
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(Manifest {
        end_to_end,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

pub fn load(path: &Path) -> Result<Manifest, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        let m = from_text(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[{"name":"sim.events_per_s","unit":"1/s","better":"higher"}]}"#,
        )
        .unwrap();
        let (wall, ops) = (&m.end_to_end[0], &m.end_to_end[1]);
        assert!((wall.worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((ops.worsening(1000.0, 900.0) - 0.1).abs() < 1e-12);
        assert!(wall.worsening(2.0, 1.0) < 0.0 && ops.worsening(1.0, 2.0) < 0.0);
        assert_eq!((wall.better(), ops.better()), ("lower", "higher"));
        assert_eq!(m.per_layer[0].bound, None);
    }

    #[test]
    fn an_end_to_end_metric_needs_a_bound() {
        let text = r#"{"per_layer":[],
            "end_to_end":[{"name":"wall_s","unit":"s","better":"lower"}]}"#;
        assert!(from_text(text).unwrap_err().contains("no bound"));
        assert!(from_text(r#"{"per_layer":[]}"#).is_err());
    }

    /// The committed file and the code agree on the workloads, and every
    /// end-to-end metric the harness computes is declared.
    #[test]
    fn the_committed_manifest_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let m = load(&path).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let defined: Vec<&str> = crate::workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(listed, defined);
        let declared: Vec<&str> = m.end_to_end.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            declared,
            [
                "wall_s",
                "ops_per_s",
                "setup_s",
                "peak_rss_mb",
                "passes_per_locate"
            ]
        );
        assert!(m.per_layer.len() <= 128 && !m.per_layer.is_empty());
    }
}
