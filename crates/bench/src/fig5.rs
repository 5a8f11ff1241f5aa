//! Figure 5: per-queue estimates on the web-application testbed.
//!
//! The paper estimates mean service (left panel) and waiting (right
//! panel) for all 12 queues of the movie-voting deployment as the
//! observed fraction sweeps from a few percent to 50%, on one fixed
//! dataset. Estimates stabilize by ~10% except for the web server the
//! balancer starved (19 requests).

use qni_core::stem::{run_stem, StemOptions};
use qni_stats::rng::SeedTree;
use qni_trace::ObservationScheme;
use qni_webapp::{WebAppConfig, WebAppTestbed};

/// Configuration of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Web application configuration.
    pub app: WebAppConfig,
    /// Observed fractions to sweep.
    pub fractions: Vec<f64>,
    /// StEM options.
    pub stem: StemOptions,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            app: WebAppConfig::default(),
            fractions: vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50],
            // Sparse queues (the 10 web servers see ~1/12 of the events
            // each) mix slowly, so the webapp experiment runs a longer
            // chain than the synthetic ones (the task-shift move of
            // `qni_core::gibbs::shift` exists to speed exactly this up).
            stem: StemOptions {
                iterations: 500,
                burn_in: 250,
                waiting_sweeps: 20,
                ..StemOptions::default()
            },
            seed: 20080502,
        }
    }
}

impl Fig5Config {
    /// A reduced configuration for smoke tests.
    pub fn quick() -> Self {
        Fig5Config {
            app: WebAppConfig {
                requests: 300,
                duration: 300.0,
                ramp: (0.5, 1.5),
                ..WebAppConfig::default()
            },
            fractions: vec![0.2],
            stem: StemOptions::quick_test(),
            ..Fig5Config::default()
        }
    }
}

/// One estimate series point: a queue at one observed fraction.
#[derive(Debug, Clone)]
pub struct EstimateRow {
    /// Observed fraction.
    pub fraction: f64,
    /// Queue index.
    pub queue: usize,
    /// Queue name (e.g. `web3`, `mysql`, `network`).
    pub name: String,
    /// Estimated mean service time (`1/µ̂`).
    pub service_est: f64,
    /// Estimated mean waiting time.
    pub waiting_est: f64,
    /// True (configured) mean service time.
    pub service_true: f64,
    /// Ground-truth empirical mean waiting time.
    pub waiting_true: f64,
    /// Number of events at this queue in the dataset.
    pub events: usize,
}

/// Runs the experiment: one dataset, a sweep of observation fractions.
pub fn run(cfg: &Fig5Config) -> Vec<EstimateRow> {
    let tb = WebAppTestbed::build(&cfg.app).expect("valid config");
    let tree = SeedTree::new(cfg.seed);
    let mut rng = tree.child(0).rng();
    let truth = tb.generate(&mut rng).expect("generation");
    let truth_avg = truth.queue_averages();
    let true_service = tb.true_mean_services();
    let mut rows = Vec::new();
    for (fi, &fraction) in cfg.fractions.iter().enumerate() {
        let mut frng = tree.child(1).child(fi as u64).rng();
        let masked = ObservationScheme::task_sampling(fraction)
            .expect("valid fraction")
            .apply(truth.clone(), &mut frng)
            .expect("mask");
        let result = run_stem(&masked, None, &cfg.stem, &mut frng).expect("stem");
        for q in 1..tb.network().num_queues() {
            rows.push(EstimateRow {
                fraction,
                queue: q,
                name: tb
                    .network()
                    .queue_name(qni_model::ids::QueueId::from_index(q))
                    .to_owned(),
                service_est: result.mean_service[q],
                waiting_est: result.mean_waiting[q],
                service_true: true_service[q],
                waiting_true: truth_avg[q].mean_waiting,
                events: truth_avg[q].count,
            });
        }
    }
    rows
}

/// Relative stability of a queue's service estimates across fractions:
/// `max|est − est_at_max_fraction| / est_at_max_fraction`.
pub fn stability(rows: &[EstimateRow], queue: usize) -> f64 {
    let mut series: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.queue == queue)
        .map(|r| (r.fraction, r.service_est))
        .collect();
    series.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(_, reference)) = series.last() else {
        return f64::NAN;
    };
    series
        .iter()
        .map(|&(_, v)| (v - reference).abs() / reference.abs().max(1e-12))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows_for_all_queues() {
        let cfg = Fig5Config::quick();
        let rows = run(&cfg);
        // 12 queues × 1 fraction.
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.service_est.is_finite());
            assert!(r.waiting_est.is_finite());
            assert!(r.service_true.is_finite());
        }
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"network"));
        assert!(names.contains(&"mysql"));
        assert!(names.contains(&"web1"));
    }

    #[test]
    fn stability_metric() {
        let rows = vec![
            EstimateRow {
                fraction: 0.1,
                queue: 1,
                name: "a".into(),
                service_est: 0.5,
                waiting_est: 0.0,
                service_true: 0.4,
                waiting_true: 0.0,
                events: 10,
            },
            EstimateRow {
                fraction: 0.5,
                queue: 1,
                name: "a".into(),
                service_est: 0.4,
                waiting_est: 0.0,
                service_true: 0.4,
                waiting_true: 0.0,
                events: 10,
            },
        ];
        let s = stability(&rows, 1);
        assert!((s - 0.25).abs() < 1e-12);
        assert!(stability(&rows, 9).is_nan());
    }
}
