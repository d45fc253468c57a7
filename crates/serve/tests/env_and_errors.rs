//! Contracts of `ServeError`: the stability of its typed variants and
//! Display strings (clients match on both; changing them is a breaking
//! change that must fail a test).

use lancet_serve::ServeError;

/// Display strings are a stable part of the serving API: operators grep
/// logs for them and clients surface them verbatim.
#[test]
fn error_display_is_stable() {
    let cases: [(ServeError, &str); 9] = [
        (ServeError::UnknownModel("m".into()), "unknown model `m`"),
        (ServeError::BadRequest("why".into()), "bad request: why"),
        (ServeError::Overloaded { depth: 4 }, "overloaded: admission queue full at depth 4"),
        (
            ServeError::DeadlineExceeded { waited_ms: 3.25 },
            "deadline exceeded after 3.2 ms in queue",
        ),
        (ServeError::TimedOut { waited_ms: 7.06 }, "timed out after 7.1 ms"),
        (ServeError::ShuttingDown, "runtime is shutting down"),
        (ServeError::Plan("p".into()), "plan construction failed: p"),
        (ServeError::Exec("e".into()), "execution failed: e"),
        (ServeError::WorkerPanic("w".into()), "worker panicked: w"),
    ];
    for (err, expected) in cases {
        assert_eq!(err.to_string(), expected);
    }
}

/// The typed variants carry their payloads intact (equality and clone
/// are part of the contract — chaos tests and clients compare them).
#[test]
fn error_variants_round_trip() {
    let errors = [
        ServeError::UnknownModel("a".into()),
        ServeError::BadRequest("b".into()),
        ServeError::Overloaded { depth: 16 },
        ServeError::DeadlineExceeded { waited_ms: 1.5 },
        ServeError::TimedOut { waited_ms: 2.5 },
        ServeError::ShuttingDown,
        ServeError::Plan("c".into()),
        ServeError::Exec("d".into()),
        ServeError::WorkerPanic("e".into()),
    ];
    for err in &errors {
        assert_eq!(err, &err.clone(), "clone must preserve the variant and payload");
    }
    // Pairwise distinct: no two variants compare equal.
    for (i, a) in errors.iter().enumerate() {
        for (j, b) in errors.iter().enumerate() {
            assert_eq!(a == b, i == j);
        }
    }
    // They are real std errors (boxable, displayable through the trait).
    let boxed: Box<dyn std::error::Error> = Box::new(ServeError::ShuttingDown);
    assert_eq!(boxed.to_string(), "runtime is shutting down");
}
