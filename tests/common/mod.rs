//! Session-upload helpers shared by the HTTP integration tests.

// Each integration-test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use lightor_platform::wire::{EventDto, StreamAccepted, StreamBatchDto};
use lightor_server::ClientResponse;
use lightor_types::Session;

/// One NDJSON line (newline-terminated; a body for either session
/// path): `session`'s events as `client`'s batch `seq` for `video`.
pub fn session_line(video: u64, client: u64, seq: u64, session: &Session) -> String {
    let batch = StreamBatchDto {
        video,
        client,
        seq: Some(seq),
        events: session.events.iter().map(|&e| EventDto::from(e)).collect(),
    };
    let mut line = serde_json::to_string(&batch).unwrap();
    line.push('\n');
    line
}

/// Assert that `resp` acknowledges exactly one folded batch: a 200
/// [`StreamAccepted`] with no rejected line and no replay. A 200 alone
/// proves nothing, since line rejections and replays answer 200 too.
pub fn assert_folded(resp: &ClientResponse) -> StreamAccepted {
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!((ack.lines_rejected, ack.batches_folded), (0, 1), "{ack:?}");
    ack
}
