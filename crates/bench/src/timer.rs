//! The wall-clock timer every bench target samples through.

use std::time::Instant;

use crate::Json;

/// Wall-clock statistics of one timed closure.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `group/name`.
    pub name: String,
    /// Mean time per call, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest call, in nanoseconds.
    pub min_ns: f64,
    /// Number of timed calls.
    pub samples: usize,
}

impl Summary {
    /// The artifact row: `{name, mean_ns, min_ns, samples}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.as_str().into()),
            ("mean_ns", Json::fixed(self.mean_ns, 1)),
            ("min_ns", Json::fixed(self.min_ns, 1)),
            ("samples", self.samples.into()),
        ])
    }
}

/// Times each named closure `samples` times, round-robin: one call of
/// each per round, after one untimed warmup round. Alternating the sides
/// of a comparison lands a noisy phase of the host on all of them, so
/// their ratio holds up better than back-to-back runs would. Prints and
/// returns one `group/name` summary per closure, in order.
pub fn interleaved<const N: usize>(
    group: &str,
    samples: usize,
    mut fs: [(&str, &mut dyn FnMut()); N],
) -> Vec<Summary> {
    let mut times = [(); N].map(|_| Vec::with_capacity(samples));
    for round in 0..=samples {
        for ((_, f), t) in fs.iter_mut().zip(&mut times) {
            let start = Instant::now();
            f();
            if round > 0 {
                t.push(start.elapsed().as_secs_f64() * 1e9);
            }
        }
    }
    fs.iter()
        .zip(&times)
        .map(|((name, _), t)| {
            let s = Summary {
                name: format!("{group}/{name}"),
                mean_ns: t.iter().sum::<f64>() / samples as f64,
                min_ns: t.iter().copied().fold(f64::INFINITY, f64::min),
                samples,
            };
            let (mean, min) = (s.mean_ns / 1e6, s.min_ns / 1e6);
            println!("{:<44} mean {mean:>10.3} ms   min {min:>10.3} ms", s.name);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_closure_runs_once_per_round_plus_warmup() {
        let (mut a, mut b) = (0, 0);
        let rows = interleaved("g", 3, [("a", &mut || a += 1), ("b", &mut || b += 1)]);
        assert_eq!((a, b), (4, 4));
        assert_eq!(rows.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["g/a", "g/b"]);
        assert!(rows.iter().all(|s| s.samples == 3 && s.min_ns <= s.mean_ns));
        assert!(rows[0].to_json().render().starts_with("{\"name\": \"g/a\", \"mean_ns\": "));
    }
}
