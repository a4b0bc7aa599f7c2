//! Order statistics and the small JSON writer every output goes through.

use std::fmt;

/// Sorts `v` and returns the `q`-quantile by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, q)
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the acceptance check of
/// the benchmark contract uses, so `check-repeat` reports the same spread.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Order statistics of one metric's per-round values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        let (q1, q3) = quartiles(&mut v);
        Summary {
            median: median(&mut v),
            q1,
            q3,
            max: v.last().copied().unwrap_or(0.0),
            n: v.len(),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A JSON value; objects keep insertion order so outputs diff cleanly.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `{"value": v, "unit": u}` — the shape the benchmark contract reads.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // Shortest representation that round-trips: every measured digit.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::str(k.as_str()))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let mut v: Vec<f64> = (0..10).map(|i| f64::from(1u32 << i)).collect();
        assert_eq!(quartiles(&mut v), (3.5, 160.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        let j = Json::obj([("a\"b", Json::Num(0.1 + 0.2)), ("n", Json::Num(f64::NAN))]);
        assert_eq!(j.to_string(), r#"{"a\"b": 0.30000000000000004, "n": null}"#);
    }
}
