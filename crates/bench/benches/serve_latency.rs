//! Criterion bench: the `teal-serve` daemon under concurrent clients
//! across two topologies, versus sequentially draining the same request
//! stream through direct `ServingContext::allocate` calls — plus a
//! loopback-socket arm (pipelined `TealClient` → `TealServer`) measuring
//! what the wire front end adds on top of the in-process path.
//!
//! Each iteration serves `REQUESTS` requests (split over `CLIENTS` client
//! threads for the daemon), so requests/sec = `REQUESTS / mean`. The
//! criterion shim reports per-iteration p50/p99 alongside mean/min/max; the
//! daemon's own per-request latency histogram (p50/p99) and batch-size
//! distribution are printed after the run. The acceptance bar for the
//! serving-daemon PR: `daemon_coalesced` must not lose to `sequential` on
//! the same request stream (`BENCH_serve.json`).
//!
//! The `deadline_pressure` arms serve one more burst shape — a linger
//! window flooded with plain traffic ahead of a handful of deadline'd
//! requests — under FIFO vs EDF drain order, and report the deadline'd
//! requests' own latency percentiles (`deadlined_p99` records). EDF must
//! strictly beat FIFO on that p99 in the same run; the bench asserts it.
//!
//! Run with `CRITERION_JSON_PATH=BENCH_serve.json` to persist the results
//! the CI workflow publishes. Note the single-core CI caveat in ROADMAP.md:
//! on 1 CPU the coalescing win is bounded by memory bandwidth; multicore
//! hardware widens it via the parallel ADMM stage and the nn worker pool.

use criterion::{criterion_group, criterion_main, BenchRecord, BenchmarkId, Criterion};
use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{
    wire, DrainOrder, ModelRegistry, ServeConfig, ServeDaemon, SubmitRequest, TealClient,
    TealServer,
};
use teal_topology::{b4, generate, TopoKind};
use teal_traffic::{TrafficConfig, TrafficModel};

/// Requests per measured iteration.
const REQUESTS: usize = 32;
/// Concurrent client threads driving the daemon.
const CLIENTS: usize = 4;

/// One registered topology plus its request stream.
struct Workload {
    id: &'static str,
    ctx: Arc<ServingContext<TealModel>>,
    tms: Vec<teal_traffic::TrafficMatrix>,
}

fn workload(id: &'static str, topo: teal_topology::Topology, seed: u64) -> Workload {
    let env = Arc::new(Env::for_topology(topo));
    let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), seed);
    traffic.calibrate(env.topo(), env.paths());
    let tms = traffic.series(0, REQUESTS);
    let model = TealModel::new(
        Arc::clone(&env),
        TealConfig {
            gnn_layers: 3,
            ..TealConfig::default()
        },
    );
    let ctx = Arc::new(ServingContext::new(
        model,
        EngineConfig::paper_default(env.topo().num_nodes()),
    ));
    Workload { id, ctx, tms }
}

fn bench_serve_latency(c: &mut Criterion) {
    let loads = [
        workload("b4", b4(), 7),
        workload("swan", generate(TopoKind::Swan, 0.3, 7), 11),
    ];
    // The interleaved request stream both paths serve: (topology, matrix).
    let stream: Vec<(usize, usize)> = (0..REQUESTS).map(|i| (i % loads.len(), i)).collect();
    let label = format!("2topo_x{REQUESTS}req");

    let mut group = c.benchmark_group("serve_latency");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Baseline: one caller draining the stream through direct context calls.
    group.bench_with_input(BenchmarkId::new("sequential", &label), &(), |b, _| {
        b.iter(|| {
            let mut out = Vec::with_capacity(stream.len());
            for &(w, i) in &stream {
                out.push(loads[w].ctx.allocate(&loads[w].tms[i]).0);
            }
            out
        })
    });

    // The daemon: persistent across iterations (that is the point of a
    // serving process), concurrent clients submitting the same stream.
    let registry = ModelRegistry::new();
    for w in &loads {
        registry.insert(
            w.id,
            ServingContext::new(
                TealModel::new(
                    Arc::clone(w.ctx.env()),
                    TealConfig {
                        gnn_layers: 3,
                        ..TealConfig::default()
                    },
                ),
                EngineConfig::paper_default(w.ctx.env().topo().num_nodes()),
            ),
        );
    }
    let daemon = std::sync::Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
    group.bench_with_input(BenchmarkId::new("daemon_coalesced", &label), &(), |b, _| {
        b.iter(|| {
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for t in 0..CLIENTS {
                    let daemon = &daemon;
                    let loads = &loads;
                    let stream = &stream;
                    handles.push(s.spawn(move || {
                        // Submit the window's requests, then redeem: the
                        // queue fills while the dispatcher is busy, so
                        // bursts coalesce into shared forward passes.
                        let tickets: Vec<_> = stream
                            .iter()
                            .skip(t)
                            .step_by(CLIENTS)
                            .map(|&(w, i)| {
                                daemon.submit(SubmitRequest::new(
                                    loads[w].id,
                                    loads[w].tms[i].clone(),
                                ))
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().expect("served").allocation)
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .count()
            })
        })
    });

    // The wire front end on loopback TCP: same stream, same daemon, but
    // submitted as pipelined id-tagged frames through one TealClient per
    // client thread (persistent connections — that is the point of a
    // serving socket). The delta to `daemon_coalesced` is the codec +
    // loopback + out-of-order reply drain.
    let server = TealServer::bind(std::sync::Arc::clone(&daemon), "127.0.0.1:0")
        .expect("bind loopback bench server");
    let clients: Vec<TealClient> = (0..CLIENTS)
        .map(|_| TealClient::connect(server.local_addr()).expect("bench client connect"))
        .collect();
    group.bench_with_input(BenchmarkId::new("socket_pipelined", &label), &(), |b, _| {
        b.iter(|| {
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for (t, client) in clients.iter().enumerate() {
                    let loads = &loads;
                    let stream = &stream;
                    handles.push(s.spawn(move || {
                        let tickets: Vec<_> = stream
                            .iter()
                            .skip(t)
                            .step_by(CLIENTS)
                            .map(|&(w, i)| {
                                client.submit(&SubmitRequest::new(
                                    loads[w].id,
                                    loads[w].tms[i].clone(),
                                ))
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().expect("served over socket").allocation)
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .count()
            })
        })
    });
    // Deadline pressure: the same burst shape served under FIFO vs EDF
    // drain order, reporting the *deadline'd requests'* latency p99 per
    // arm rather than burst wall time. Each iteration floods one linger
    // window with plain traffic and then four deadline'd requests at the
    // back of the queue: FIFO serves them in the burst's last `max_batch`
    // chunk, EDF hoists them into the first, so their tail latency is the
    // direct read on what the tentpole buys. Deadlines are a generous 60 s
    // — nothing expires, nothing downgrades; only the order differs.
    const PRESSURE_PLAIN: usize = 28;
    const PRESSURE_DEADLINED: usize = 4;
    let mut tails: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (order, tag) in [
        (DrainOrder::Fifo, "fifo"),
        (DrainOrder::EarliestDeadlineFirst, "edf"),
    ] {
        let registry = ModelRegistry::new();
        registry.insert(
            "b4",
            ServingContext::new(
                TealModel::new(
                    Arc::clone(loads[0].ctx.env()),
                    TealConfig {
                        gnn_layers: 3,
                        ..TealConfig::default()
                    },
                ),
                EngineConfig::paper_default(loads[0].ctx.env().topo().num_nodes()),
            ),
        );
        let daemon = ServeDaemon::start(
            registry,
            ServeConfig {
                max_batch: 4,
                linger: std::time::Duration::from_millis(25),
                drain_order: order,
                ..ServeConfig::default()
            },
        );
        let latencies = std::cell::RefCell::new(Vec::<f64>::new());
        group.bench_with_input(
            BenchmarkId::new(format!("deadline_pressure_{tag}"), &label),
            &(),
            |b, _| {
                b.iter(|| {
                    let plain: Vec<_> = (0..PRESSURE_PLAIN)
                        .map(|i| {
                            daemon.submit(SubmitRequest::new(
                                "b4",
                                loads[0].tms[i % REQUESTS].clone(),
                            ))
                        })
                        .collect();
                    let deadlined: Vec<_> = (0..PRESSURE_DEADLINED)
                        .map(|i| {
                            daemon.submit(
                                SubmitRequest::new(
                                    "b4",
                                    loads[0].tms[(PRESSURE_PLAIN + i) % REQUESTS].clone(),
                                )
                                .with_deadline(std::time::Duration::from_secs(60)),
                            )
                        })
                        .collect();
                    let mut l = latencies.borrow_mut();
                    for t in deadlined {
                        l.push(t.wait().expect("deadline'd served").latency.as_nanos() as f64);
                    }
                    let mut served = 0usize;
                    for t in plain {
                        t.wait().expect("plain served");
                        served += 1;
                    }
                    served
                })
            },
        );
        let mut l = latencies.into_inner();
        l.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        tails.push((tag, l));
    }
    group.finish();
    drop(clients);

    // Nearest-rank percentile, matching the shim's convention.
    let pctl = |sorted: &[f64], q: f64| -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    };
    let mut p99_by_tag = std::collections::HashMap::new();
    for (tag, sorted) in &tails {
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let record = BenchRecord {
            id: format!("serve_latency/deadline_pressure_{tag}/deadlined_p99"),
            mean_ns: mean,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            p50_ns: pctl(sorted, 0.50),
            p99_ns: pctl(sorted, 0.99),
            samples: n,
            iters: 1,
        };
        p99_by_tag.insert(*tag, record.p99_ns);
        criterion::push_record(record);
    }
    // The PR's acceptance bar: EDF must strictly improve the deadline'd
    // requests' p99 over FIFO in the same run.
    let (fifo_p99, edf_p99) = (p99_by_tag["fifo"], p99_by_tag["edf"]);
    eprintln!(
        "deadline_pressure: deadline'd p99 fifo {:.3} ms vs edf {:.3} ms ({:.2}x)",
        fifo_p99 / 1e6,
        edf_p99 / 1e6,
        fifo_p99 / edf_p99
    );
    assert!(
        edf_p99 < fifo_p99,
        "EDF did not improve the deadline'd p99: edf {edf_p99} ns vs fifo {fifo_p99} ns"
    );

    let stats = daemon.stats();
    eprintln!(
        "serve_latency daemon telemetry: mean batch {:.2}, max queue depth {}",
        stats.mean_batch_size(),
        stats.max_queue_depth
    );
    for t in &stats.per_topology {
        eprintln!(
            "  {}: {} requests in {} batches, per-request p50 {:?} p99 {:?}",
            t.topology, t.requests, t.batches, t.p50, t.p99
        );
    }
}

/// Live threads whose `comm` starts with `teal-serve` — the server-side
/// thread population (epoll loop, shard dispatchers). `comm` truncates names to 15 bytes, which
/// preserves the prefix; client readers (`teal-client-*`) and nn pool
/// workers (`teal-nn-*`) don't match.
fn serve_thread_count() -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let mut path = entry.expect("procfs task").path();
        path.push("comm");
        // Threads exit between readdir and read; a vanished one wasn't a
        // resident server thread anyway.
        if let Ok(comm) = std::fs::read_to_string(&path) {
            if comm.starts_with("teal-serve") {
                n += 1;
            }
        }
    }
    n
}

/// Resident set size of this process in KiB (`VmRSS` from procfs).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS in /proc/self/status");
    line.split_whitespace()
        .nth(1)
        .expect("VmRSS value")
        .parse()
        .expect("VmRSS is integer KiB")
}

/// A scalar measurement (thread count, RSS) wearing the `BenchRecord`
/// shape so it lands in `BENCH_serve.json` next to the latencies.
fn gauge(id: String, value: f64) -> BenchRecord {
    BenchRecord {
        id,
        mean_ns: value,
        min_ns: value,
        max_ns: value,
        p50_ns: value,
        p99_ns: value,
        samples: 1,
        iters: 1,
    }
}

/// Connection scale: 1,024 idle keepalive connections parked on the
/// server plus 4 active pipelined clients, all multiplexed by the epoll
/// event loop. The bench records the active clients' request latency, the
/// wire overhead (client round trip minus the daemon's own per-request
/// latency — the codec + loopback + front-end share), the `teal-serve`
/// thread population, and process RSS, all measured while the 1,024 idle
/// connections are attached. One assertion gates the run: server threads
/// ≤ shards + 3, however many connections attach.
fn bench_connection_scale(c: &mut Criterion) {
    const IDLE_CONNS: usize = 1024;
    const ACTIVE: usize = 4;

    let loads = [
        workload("b4", b4(), 7),
        workload("swan", generate(TopoKind::Swan, 0.3, 7), 11),
    ];
    let stream: Vec<(usize, usize)> = (0..REQUESTS).map(|i| (i % loads.len(), i)).collect();
    let label = format!("{IDLE_CONNS}idle_{ACTIVE}active");

    let mut group = c.benchmark_group("connection_scale");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let tag = "event_loop";
    // Threads are counted as a delta so an earlier group's not-yet-reaped
    // exiters can't be charged to this one.
    let thread_floor = serve_thread_count();

    let registry = ModelRegistry::new();
    for w in &loads {
        registry.insert(
            w.id,
            ServingContext::new(
                TealModel::new(
                    Arc::clone(w.ctx.env()),
                    TealConfig {
                        gnn_layers: 3,
                        ..TealConfig::default()
                    },
                ),
                EngineConfig::paper_default(w.ctx.env().topo().num_nodes()),
            ),
        );
    }
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind scale server");
    let addr = server.local_addr();

    // The idle population: raw sockets that complete a real HELLO
    // handshake and then just sit there — the production posture the
    // event loop exists for. Raw `TcpStream`s rather than `TealClient`s
    // so the *client* side doesn't spawn 1,024 reader threads.
    let mut buf = Vec::new();
    let idle: Vec<std::net::TcpStream> = (0..IDLE_CONNS)
        .map(|i| {
            let mut s = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"));
            wire::encode_hello(&mut buf);
            wire::write_frame(&mut s, &buf).expect("idle hello");
            let mut decoder = wire::FrameDecoder::new();
            let hello_ok = decoder
                .read_frame(&mut s)
                .expect("idle hello_ok")
                .expect("server closed during idle handshake");
            wire::decode_hello_ok(hello_ok).expect("idle handshake");
            s
        })
        .collect();

    let clients: Vec<TealClient> = (0..ACTIVE)
        .map(|_| TealClient::connect(addr).expect("active client connect"))
        .collect();

    // (client round trip, daemon-reported latency) per request, in ns.
    // A mutex (not a RefCell) because the active clients are scoped
    // threads; they only take it once per iteration, off the timed
    // submit/wait path's critical section.
    let samples = std::sync::Mutex::new(Vec::<(f64, f64)>::new());
    group.bench_with_input(BenchmarkId::new(tag, &label), &(), |b, _| {
        b.iter(|| {
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for (t, client) in clients.iter().enumerate() {
                    let loads = &loads;
                    let stream = &stream;
                    let samples = &samples;
                    handles.push(s.spawn(move || {
                        let tickets: Vec<_> = stream
                            .iter()
                            .skip(t)
                            .step_by(ACTIVE)
                            .map(|&(w, i)| {
                                (
                                    std::time::Instant::now(),
                                    client.submit(&SubmitRequest::new(
                                        loads[w].id,
                                        loads[w].tms[i].clone(),
                                    )),
                                )
                            })
                            .collect();
                        let mut local = Vec::with_capacity(tickets.len());
                        for (t0, ticket) in tickets {
                            let reply = ticket.wait().expect("served at scale");
                            local.push((
                                t0.elapsed().as_nanos() as f64,
                                reply.latency.as_nanos() as f64,
                            ));
                        }
                        samples.lock().expect("samples").extend(local);
                    }));
                }
                for h in handles {
                    h.join().expect("active client thread");
                }
            })
        })
    });

    // Gauges, measured while all 1,024 idle connections are attached.
    let threads = serve_thread_count() - thread_floor;
    let rss = rss_kib();
    criterion::push_record(gauge(
        format!("connection_scale/{tag}/server_threads"),
        threads as f64,
    ));
    criterion::push_record(gauge(format!("connection_scale/{tag}/rss_kib"), rss as f64));

    let pctl = |sorted: &[f64], q: f64| -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    };
    let samples = samples.into_inner().expect("samples");
    let mut rtt: Vec<f64> = samples.iter().map(|&(r, _)| r).collect();
    // Wire overhead: what the front end adds on top of the daemon's
    // own queue+solve+write span. The round trip strictly contains
    // that span, so the difference is nonnegative.
    let mut overhead: Vec<f64> = samples.iter().map(|&(r, d)| r - d).collect();
    rtt.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    overhead.sort_by(|a, b| a.partial_cmp(b).expect("finite overhead"));
    for (kind, sorted) in [("request_latency", &rtt), ("wire_overhead", &overhead)] {
        let n = sorted.len();
        criterion::push_record(BenchRecord {
            id: format!("connection_scale/{tag}/{kind}"),
            mean_ns: sorted.iter().sum::<f64>() / n as f64,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            p50_ns: pctl(sorted, 0.50),
            p99_ns: pctl(sorted, 0.99),
            samples: n,
            iters: 1,
        });
    }
    eprintln!(
        "connection_scale/{tag}: {IDLE_CONNS} idle + {ACTIVE} active, {} server threads, \
         RSS {:.1} MiB, request p50/p99 {:.3}/{:.3} ms, wire overhead p50/p99 {:.3}/{:.3} ms",
        threads,
        rss as f64 / 1024.0,
        pctl(&rtt, 0.50) / 1e6,
        pctl(&rtt, 0.99) / 1e6,
        pctl(&overhead, 0.50) / 1e6,
        pctl(&overhead, 0.99) / 1e6,
    );
    // The idle population stayed attached through every measurement.
    drop(idle);
    group.finish();

    let shards = loads.len();
    assert!(
        threads <= shards + 3,
        "event loop multiplexes {IDLE_CONNS} connections on a fixed thread budget: \
         {threads} server threads > shards + 3 = {}",
        shards + 3
    );
}

criterion_group!(benches, bench_serve_latency, bench_connection_scale);
criterion_main!(benches);
