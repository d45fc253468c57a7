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
    /// Each timed call, in nanoseconds, in round order.
    pub times_ns: Vec<f64>,
}

impl Summary {
    /// The artifact row: `{name, mean_ns, min_ns, samples}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.as_str().into()),
            ("mean_ns", Json::fixed(self.mean_ns, 1)),
            ("min_ns", Json::fixed(self.min_ns, 1)),
            ("samples", self.times_ns.len().into()),
        ])
    }

    /// The median over rounds of `self`'s call time over `den`'s, for two
    /// rows of one [`interleaved`] group. Each round runs both calls back
    /// to back, so a slow phase of the host lands on both sides of a
    /// ratio; a min-over-min ratio instead pairs calls from different
    /// rounds and moves with the host.
    pub fn median_ratio(&self, den: &Summary) -> f64 {
        let mut ratios: Vec<f64> =
            self.times_ns.iter().zip(&den.times_ns).map(|(n, d)| n / d.max(1.0)).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
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
        .zip(times)
        .map(|((name, _), t)| {
            let s = Summary {
                name: format!("{group}/{name}"),
                mean_ns: t.iter().sum::<f64>() / samples as f64,
                min_ns: t.iter().copied().fold(f64::INFINITY, f64::min),
                times_ns: t,
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
        assert!(rows.iter().all(|s| s.times_ns.len() == 3 && s.min_ns <= s.mean_ns));
        assert!(rows[0].to_json().render().starts_with("{\"name\": \"g/a\", \"mean_ns\": "));
    }

    #[test]
    fn median_ratio_pairs_calls_by_round() {
        let row = |times_ns: Vec<f64>| Summary {
            name: String::new(),
            mean_ns: 0.0,
            min_ns: 0.0,
            times_ns,
        };
        // Round 2 ran in a slow phase on both sides, and round 3's `den`
        // call hit a fast one: min over min reads 10 / 2 = 5x, while the
        // median of the paired ratios stays at 2x.
        let num = row(vec![10.0, 20.0, 10.0]);
        let den = row(vec![5.0, 10.0, 2.0]);
        assert_eq!(num.median_ratio(&den), 2.0);
    }
}
