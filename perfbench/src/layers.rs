//! The per-layer metrics of a traced run, in BENCHMARK.json order.
//! Every traced run prints all of them; a layer the workload does not
//! exercise reads 0 (NOTES.md says which).

use crate::report::Metric;

/// `(name, unit, deterministic)` of every per-layer metric. A
/// deterministic counter is a pure function of the workload and seed,
/// so it must read the same on every pass.
pub const PER_LAYER: [(&str, &str, bool); 31] = [
    ("netsim.stream_run_s", "s", false),
    ("netsim.stream_steps", "count", true),
    ("netsim.stream_ns_per_step", "ns", false),
    ("clouds.instantiate_s", "s", false),
    ("measure.campaign_s", "s", false),
    ("measure.campaign_other_frac", "frac", false),
    ("vstats.sketch_fold_s", "s", false),
    ("vstats.sketch_encoded_bytes", "bytes", true),
    ("journal.append_s", "s", false),
    ("journal.appends", "count", true),
    ("journal.write_bytes", "bytes", true),
    ("journal.file_bytes", "bytes", true),
    ("journal.open_s", "s", false),
    ("journal.read_bytes", "bytes", true),
    ("topo.route_s", "s", false),
    ("topo.wiring_new_s", "s", false),
    ("topo.reseat_s", "s", false),
    ("bigdata.cluster_setup_s", "s", false),
    ("bigdata.run_job_s", "s", false),
    ("netsim.fabric.steps", "count", true),
    ("netsim.fabric.event_jumps", "count", true),
    ("netsim.fabric.event_steps", "count", true),
    ("netsim.fabric.rate_recomputes", "count", true),
    ("netsim.fabric.rate_cache_hits", "count", true),
    ("netsim.fabric.link_recomputes", "count", true),
    ("netsim.fabric.link_cache_hits", "count", true),
    ("netsim.fabric.steps_per_jump", "count", true),
    ("netsim.fabric.ns_per_step", "ns", false),
    ("exec.busy_frac", "frac", false),
    ("exec.tasks_stolen", "count", false),
    ("trace.overhead_frac", "frac", false),
];

/// Per-layer values gathered by one traced iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(Vec<(&'static str, Option<f64>)>);

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("{name:?} is not a per-layer metric"))
}

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.set_opt(name, Some(v));
    }

    /// Record a value that may be unmeasurable on this platform.
    pub fn set_opt(&mut self, name: &'static str, v: Option<f64>) {
        unit_of(name);
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, v));
    }

    /// The metrics: each one's median over `iters`, after checking that
    /// deterministic counters repeat exactly.
    pub fn summarize(iters: &[Layers]) -> Result<Vec<Metric>, String> {
        let mut out = Vec::with_capacity(PER_LAYER.len());
        for (name, unit, deterministic) in PER_LAYER {
            let vals: Vec<Option<f64>> = iters
                .iter()
                .map(|l| {
                    l.0.iter()
                        .find(|(n, _)| *n == name)
                        .map_or(Some(0.0), |(_, v)| *v)
                })
                .collect();
            let value = if vals.iter().any(Option::is_none) {
                None
            } else {
                let xs: Vec<f64> = vals.iter().flatten().copied().collect();
                if deterministic && xs.windows(2).any(|w| w[0] != w[1]) {
                    return Err(format!(
                        "counter {name} differs between identical passes: {xs:?}"
                    ));
                }
                Some(crate::report::median(&xs))
            };
            out.push(Metric::maybe(name, value, unit));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_layers_read_zero_and_timings_take_the_median() {
        let mk = |t: f64| {
            let mut l = Layers::default();
            l.set("measure.campaign_s", t);
            l.set("journal.appends", 7.0);
            l
        };
        let m = Layers::summarize(&[mk(3.0), mk(1.0), mk(2.0)]).expect("counters agree");
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|x| x.name == n).expect(n).value;
        assert_eq!(get("measure.campaign_s"), Some(2.0));
        assert_eq!(get("journal.appends"), Some(7.0));
        assert_eq!(get("topo.reseat_s"), Some(0.0));
    }

    #[test]
    fn drifting_counters_fail_and_unmeasurable_values_stay_null() {
        let mut a = Layers::default();
        a.set("netsim.fabric.steps", 10.0);
        let mut b = Layers::default();
        b.set("netsim.fabric.steps", 11.0);
        assert!(Layers::summarize(&[a, b]).is_err());
        // Work stealing depends on timing, so it may vary.
        let mut x = Layers::default();
        x.set("exec.tasks_stolen", 1.0);
        assert!(Layers::summarize(&[x, Layers::default()]).is_ok());

        let mut c = Layers::default();
        c.set_opt("journal.write_bytes", None);
        let m = Layers::summarize(&[c]).expect("one pass");
        let w = m
            .iter()
            .find(|x| x.name == "journal.write_bytes")
            .expect("present");
        assert_eq!(w.value, None);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_names_are_bugs() {
        Layers::default().set("nope", 1.0);
    }
}
