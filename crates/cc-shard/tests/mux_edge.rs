//! Mux edge cases, verified through the `cc-replay` decoder: shards that
//! emit nothing, shards that panic mid-stream, and shards that complete
//! out of submission order must all produce deterministic, decodable
//! merged output.

use std::sync::mpsc;

use cc_obs::{event_line, Event, EventSink, JsonlSink};
use cc_replay::decode_stream;
use cc_shard::run_sharded_jsonl;
use cc_types::{FunctionId, SimTime};

fn arrival(us: u64) -> Event {
    Event::Arrival {
        at: SimTime::from_micros(us),
        function: FunctionId::new(2),
    }
}

/// A shard that emits no events still gets its begin/end markers, the end
/// marker declares zero events, and the merged stream decodes cleanly.
#[test]
fn zero_event_shard_produces_an_empty_decodable_block() {
    let run = || {
        let jobs: Vec<_> = [3u64, 0, 2]
            .into_iter()
            .map(|count| {
                move |sink: &mut JsonlSink<Vec<u8>>| {
                    for i in 0..count {
                        sink.record(&arrival(i));
                    }
                }
            })
            .collect();
        let (results, bytes, report) =
            run_sharded_jsonl(jobs, 2, Vec::new()).expect("in-memory mux cannot fail");
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(report.events_written, 5);
        String::from_utf8(bytes).unwrap()
    };

    let text = run();
    assert_eq!(
        text,
        run(),
        "merged output must be run-to-run deterministic"
    );

    let log = decode_stream(&text).expect("merged stream must decode");
    assert!(log.tagged);
    assert_eq!(log.shards.len(), 3);
    let per_shard: Vec<usize> = log.shards.iter().map(|s| s.events.len()).collect();
    assert_eq!(per_shard, vec![3, 0, 2]);
    let empty = &log.shards[1];
    let end = empty.end.expect("empty shard still carries its end marker");
    assert_eq!(end.events, 0);
    assert_eq!(end.dropped, 0);
}

/// A shard that panics mid-stream still delivers the events it emitted
/// before dying plus its end-of-shard marker (the sink is finished on the
/// panic path), so the merged stream stays decodable and deterministic —
/// and the sibling shards are unaffected.
#[test]
fn panicking_shard_leaves_a_decodable_deterministic_stream() {
    let run = || {
        type Job = Box<dyn FnOnce(&mut JsonlSink<Vec<u8>>) + Send>;
        let jobs: Vec<Job> = vec![
            Box::new(|sink: &mut JsonlSink<Vec<u8>>| {
                for i in 0..4 {
                    sink.record(&arrival(i));
                }
            }),
            Box::new(|sink: &mut JsonlSink<Vec<u8>>| {
                sink.record(&arrival(100));
                sink.record(&arrival(101));
                panic!("simulated divergence after two events");
            }),
            Box::new(|sink: &mut JsonlSink<Vec<u8>>| {
                sink.record(&arrival(200));
            }),
        ];
        let (results, bytes, report) =
            run_sharded_jsonl(jobs, 2, Vec::new()).expect("in-memory mux cannot fail");
        assert!(results[0].outcome.is_ok());
        let err = results[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("simulated divergence"), "got {err:?}");
        assert!(results[2].outcome.is_ok());
        assert_eq!(report.events_written, 7);
        String::from_utf8(bytes).unwrap()
    };

    let text = run();
    assert_eq!(
        text,
        run(),
        "merged output must be run-to-run deterministic"
    );

    let log = decode_stream(&text).expect("a panicked shard must not corrupt the stream");
    assert_eq!(log.shards.len(), 3);
    let per_shard: Vec<usize> = log.shards.iter().map(|s| s.events.len()).collect();
    assert_eq!(per_shard, vec![4, 2, 1]);
    // The panicked shard's block is well-formed: marker counts match the
    // events that made it out before the panic.
    let end = log.shards[1].end.expect("panicked shard still ends");
    assert_eq!(end.events, 2);
    assert_eq!(end.dropped, 0);
}

/// Shard 0 stalls until shard 1 has completely finished, forcing strictly
/// out-of-order completion; the merged stream must still present shard 0's
/// block first, byte-for-byte as if completion had been in order.
#[test]
fn out_of_order_completion_still_merges_in_shard_order() {
    let (signal_tx, signal_rx) = mpsc::channel::<()>();
    type Job = Box<dyn FnOnce(&mut JsonlSink<Vec<u8>>) + Send>;
    let jobs: Vec<Job> = vec![
        Box::new(move |sink: &mut JsonlSink<Vec<u8>>| {
            // Wait until shard 1 is completely done before emitting.
            signal_rx.recv().expect("shard 1 signals completion");
            sink.record(&arrival(0));
            sink.record(&arrival(1));
        }),
        Box::new(move |sink: &mut JsonlSink<Vec<u8>>| {
            sink.record(&arrival(100));
            sink.record(&arrival(101));
            signal_tx.send(()).expect("shard 0 is waiting");
        }),
    ];
    // Two workers, so both shards run concurrently and the stall cannot
    // deadlock the sweep.
    let (results, bytes, report) =
        run_sharded_jsonl(jobs, 2, Vec::new()).expect("in-memory mux cannot fail");
    assert!(results.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(report.events_written, 4);

    let text = String::from_utf8(bytes).unwrap();
    let expected = format!(
        "{{\"t\":\"shard_begin\",\"shard\":0}}\n{}\n{}\n\
         {{\"t\":\"shard_end\",\"shard\":0,\"events\":2,\"dropped\":0}}\n\
         {{\"t\":\"shard_begin\",\"shard\":1}}\n{}\n{}\n\
         {{\"t\":\"shard_end\",\"shard\":1,\"events\":2,\"dropped\":0}}\n",
        event_line(&arrival(0)),
        event_line(&arrival(1)),
        event_line(&arrival(100)),
        event_line(&arrival(101)),
    );
    assert_eq!(text, expected, "blocks must appear in shard-id order");

    let log = decode_stream(&text).expect("merged stream must decode");
    assert_eq!(log.shards.len(), 2);
    assert_eq!(log.shards[0].events.len(), 2);
    assert_eq!(log.shards[1].events.len(), 2);
}
