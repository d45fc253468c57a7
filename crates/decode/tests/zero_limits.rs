//! Zero-valued limits: serve and decode read a zero count limit as 1, so
//! a zero never leaves a request unanswered or panics at start.

use std::sync::mpsc;
use std::time::Duration;

use lancet_decode::{DecodeConfig, DecodeRuntime, ServeError};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{ServeConfig, ServeRuntime};

/// Runs `f` on a helper thread; a request a zero limit strands must fail
/// the test, not hang it.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(f()).expect("test thread waits"));
    result.recv_timeout(Duration::from_secs(60)).expect("a request was never answered")
}

#[test]
fn zero_limits_mean_one() {
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    let serve = [
        ("queue_depth", ServeConfig { queue_depth: 0, ..ServeConfig::default() }),
        ("max_batch", ServeConfig { max_batch: 0, ..ServeConfig::default() }),
        ("plan_capacity", ServeConfig { plan_capacity: 0, ..ServeConfig::default() }),
    ];
    let want = Ok(vec![cfg.seq, cfg.vocab]);
    for (field, config) in serve {
        let cfg = cfg.clone();
        let served = within_a_minute(move || {
            let runtime = ServeRuntime::start(config);
            runtime.register_model(cfg.clone()).unwrap();
            let ids = (0..cfg.seq).map(|i| i as f32).collect();
            let reply = runtime.submit_blocking(&cfg.name, ids).map(|t| t.shape().to_vec());
            runtime.shutdown();
            reply
        });
        assert_eq!(served, want, "ServeConfig::{field} = 0");
    }

    // A one-token arena fits no request: the zero reads as 1 and refuses
    // at the door instead of stranding the stream.
    let fits = Ok(vec![2, 2]);
    let refused = Err("bad request");
    let decode = [
        ("queue_depth", DecodeConfig { queue_depth: 0, ..DecodeConfig::default() }, fits.clone()),
        ("max_inflight", DecodeConfig { max_inflight: 0, ..DecodeConfig::default() }, fits.clone()),
        ("plan_capacity", DecodeConfig { plan_capacity: 0, ..DecodeConfig::default() }, fits),
        ("kv_capacity_tokens", DecodeConfig { kv_capacity_tokens: 0, ..DecodeConfig::default() }, refused),
    ];
    for (field, config, want) in decode {
        let cfg = cfg.clone();
        let streamed = within_a_minute(move || {
            let runtime = DecodeRuntime::start(config);
            runtime.register_model(cfg.clone()).unwrap();
            let streams: Result<Vec<usize>, ServeError> = [&[1u32, 2][..], &[3]]
                .iter()
                .map(|prompt| runtime.submit(&cfg.name, prompt, 2)?.collect().map(|t| t.len()))
                .collect();
            runtime.shutdown();
            streams.map_err(|e| match e {
                ServeError::BadRequest(_) => "bad request",
                _ => "other error",
            })
        });
        assert_eq!(streamed, want, "DecodeConfig::{field} = 0");
    }
}
