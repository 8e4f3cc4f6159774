//! The Section VI deployment, end to end over real TCP sockets: the
//! web-service back end runs behind the hand-rolled HTTP/1.1 front end
//! (`lightor_server`), and this process plays the browser extension —
//! it fetches red dots on "page load", streams viewer sessions back as
//! sequenced JSON batches, and re-fetches the dots to watch refinement
//! move them (paper Figure 5). Every status is asserted, so the run
//! fails if the ingestion contract breaks.
//!
//! ```text
//! cargo run --release --example browser_extension
//! ```

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::{
    DotsResponse, EventDto, StatsResponse, StreamAccepted, StreamBatchDto,
};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::{HttpClient, HttpServer, ServerConfig};
use lightor_types::{GameKind, Sec};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // Back-end setup: train models offline (one labelled video), then
    // open the service against the live platform.
    let labelled = dota2_dataset(1, 71);
    let train: Vec<_> = labelled.videos.iter().collect();
    let mut campaign = Campaign::new(300, 72);
    let initializer = train_initializer(&train, FeatureSet::Full);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 4, 73);
    let models = ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: "browser-extension example".into(),
    };

    let platform = SimPlatform::top_channels(GameKind::Dota2, 3, 4, 74);
    let dir = std::env::temp_dir().join(format!("lightor-extension-{}", std::process::id()));
    let svc = Arc::new(LightorService::open(
        &dir,
        models,
        platform.clone(),
        ServiceConfig::default(),
    )?);

    // Bring the network edge up on a loopback port.
    let server = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default())?;
    let addr = server.local_addr();
    println!("server listening on http://{addr}\n");

    // A user opens a recorded video page: the extension extracts the
    // video id and GETs the red dots over the wire.
    let vid = platform.recent_videos(platform.channels()[0].id)[1];
    let mut client = HttpClient::connect(addr)?;
    let resp = client.get(&format!("/video/{}/dots", vid.0))?;
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let dots: DotsResponse = resp.json().expect("dots JSON");
    println!(
        "GET /video/{}/dots -> {}\n{}\n",
        vid.0,
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );

    // Viewers watch around the dots; the extension POSTs each session
    // back as one JSON batch. Every upload may trigger a refinement
    // round. Each viewer's extension numbers its batches per video, so
    // a batch whose ack was lost can be re-sent without folding twice.
    let truth = platform.ground_truth(vid).unwrap().clone();
    let mut viewers = Campaign::new(200, 75);
    let mut next_seq: HashMap<(u64, u64), u64> = HashMap::new();
    for round in 0..3 {
        let mut uploads = 0;
        let mut refined = 0;
        for dot in &dots.dots {
            let task = viewers.run_task(&truth.video, Sec(dot.at_seconds), 12);
            for session in task.sessions {
                let seq = next_seq.entry((vid.0, session.user.0)).or_insert(0);
                *seq += 1;
                let batch = StreamBatchDto {
                    video: vid.0,
                    client: session.user.0,
                    seq: Some(*seq),
                    events: session.events.iter().map(|&e| EventDto::from(e)).collect(),
                };
                let resp =
                    client.post_json("/sessions", &serde_json::to_string(&batch).unwrap())?;
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                let accepted: StreamAccepted = resp.json().expect("ack JSON");
                assert_eq!(accepted.batches_folded, 1, "{accepted:?}");
                uploads += 1;
                refined += accepted.dots_refined;
            }
        }
        println!(
            "round {}: {uploads} session uploads over POST /sessions, {refined} dot refinements",
            round + 1
        );
    }

    // The next page load sees the refined positions.
    let resp = client.get(&format!("/video/{}/dots", vid.0))?;
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let after: DotsResponse = resp.json().unwrap();
    println!("\nred dots before refinement -> after (re-fetched over the wire):");
    for (i, (b, a)) in dots.dots.iter().zip(&after.dots).enumerate() {
        println!(
            "  dot {}: {:7.1}s -> {:7.1}s{}",
            i + 1,
            b.at_seconds,
            a.at_seconds,
            if (b.at_seconds - a.at_seconds).abs() > 1e-9 {
                "  (moved)"
            } else {
                ""
            }
        );
    }

    // Operations: per-route counters ride along in GET /stats.
    let resp = client.get("/stats")?;
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let stats: StatsResponse = resp.json().unwrap();
    println!("\nGET /stats -> per-route counters:");
    for row in stats.http.iter().filter(|r| r.requests > 0) {
        println!(
            "  {:26} {:4} requests, {:2} errors, mean {:6.1} µs",
            row.route,
            row.requests,
            row.errors,
            row.latency_total_us as f64 / row.requests as f64
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
