//! Wire codec round-trips and a socket end-to-end exchange.

use std::sync::Arc;

use aeropack_serve::wire::{
    decode_request_line, decode_response_line, encode_request_line, encode_response_line,
    WireRequest, WireResponse,
};
use aeropack_serve::{
    serve, AnalysisRequest, AnalysisResponse, BoardSpec, CoolingModeSpec, Error, FemPlateSpec,
    MaterialKind, MissionSpec, OptimizeSpec, PlateSpec, Priority, SchemeKind, SeatKind, SebSpec,
    ServeConfig, Service, SocketClient, TransientSpec,
};

fn seb_spec() -> SebSpec {
    SebSpec {
        seat: SeatKind::CarbonComposite,
        lhp: false,
        tilt_deg: 12.5,
        ambient_c: 30.25,
    }
}

fn plate_spec() -> PlateSpec {
    PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Fr4,
        power_w: 12.5,
        h_w_m2k: 37.5,
        ambient_c: 55.0,
    }
}

fn fem_spec() -> FemPlateSpec {
    FemPlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        nx: 8,
        ny: 6,
        thickness_mm: 1.6,
        smeared_mass_kg_m2: 4.5,
        material: MaterialKind::Fr4,
    }
}

fn all_requests() -> Vec<AnalysisRequest> {
    vec![
        AnalysisRequest::SebCapability {
            spec: seb_spec(),
            dt_limit_k: 25.0,
        },
        AnalysisRequest::SebOperatingPoint {
            spec: seb_spec(),
            power_w: 41.5,
        },
        AnalysisRequest::SebPowerSweep {
            spec: seb_spec(),
            powers_w: vec![10.0, 20.0, 30.0, 123.456789012345],
        },
        AnalysisRequest::FvSteady {
            spec: plate_spec(),
            scale: 1.0 + 1e-15,
        },
        AnalysisRequest::BoardSteady {
            spec: BoardSpec {
                power_w: 25.0,
                mode: CoolingModeSpec::ConductionCooled { rail_c: 45.0 },
                ambient_c: 40.0,
                resolution_mm: 5.0,
            },
            scale: 0.75,
        },
        AnalysisRequest::BoardSteady {
            spec: BoardSpec {
                power_w: 25.0,
                mode: CoolingModeSpec::LiquidFlowThrough {
                    coolant_inlet_c: 18.0,
                },
                ambient_c: 40.0,
                resolution_mm: 5.0,
            },
            scale: 1.0,
        },
        AnalysisRequest::FemStatic {
            spec: fem_spec(),
            load_n: -9.81,
        },
        AnalysisRequest::Transient {
            spec: TransientSpec {
                plate: plate_spec(),
                mission: MissionSpec::ClimbCruiseDescent {
                    cruise_altitude_m: 10_500.0,
                    climb_s: 900.0,
                    cruise_s: 5_400.0,
                    descent_s: 1_200.0,
                },
                scheme: SchemeKind::Trapezoidal,
                fixed_dt_s: None,
                initial_c: 15.0,
            },
        },
        AnalysisRequest::Transient {
            spec: TransientSpec {
                plate: plate_spec(),
                mission: MissionSpec::OrbitCycle {
                    cycles: 3,
                    emissivity: 0.85,
                    absorptivity: 0.3125,
                },
                scheme: SchemeKind::BackwardEuler,
                fixed_dt_s: Some(2.5),
                initial_c: 20.0,
            },
        },
        AnalysisRequest::FemModal {
            spec: fem_spec(),
            n_modes: 6,
        },
        AnalysisRequest::FemHarmonic {
            spec: fem_spec(),
            damping: 0.02,
            f_min_hz: 10.0,
            f_max_hz: 2000.0,
            points: 120,
        },
        AnalysisRequest::Optimize {
            spec: OptimizeSpec {
                // Past 2^53 so a float round-trip would corrupt it:
                // proves the hex-string encoding of u64 seeds.
                seed: 0xdead_beef_1234_5678,
                population: 32,
                generations: 8,
                tilt_deg: 30.0,
                ambient_c: 25.0,
                base_power_w: 120.0,
            },
        },
    ]
}

fn all_responses() -> Vec<AnalysisResponse> {
    vec![
        AnalysisResponse::Capability { watts: 55.25 },
        AnalysisResponse::OperatingPoint {
            power_w: 40.0,
            pcb_c: 68.125,
            wall_c: 51.0625,
            lhp_w: 22.5,
            dt_pcb_air_k: 28.125,
        },
        AnalysisResponse::PowerSweep {
            dt_pcb_air_k: vec![Some(10.5), Some(21.25), None, None],
        },
        AnalysisResponse::Field {
            min_c: 40.0,
            max_c: 71.125,
            mean_c: 55.0625,
            cells: 160,
        },
        AnalysisResponse::Transient {
            final_min_c: -12.5,
            final_max_c: 61.0625,
            final_mean_c: 23.75,
            steps: 10_432,
            rejected: 17,
            factor_reuses: 10_200,
            trajectory_hash: 0xdead_beef_0123_4567,
        },
        AnalysisResponse::Static {
            max_deflection_m: 1.25e-4,
        },
        AnalysisResponse::Modal {
            frequencies_hz: vec![112.5, 280.0, 443.75],
        },
        AnalysisResponse::Harmonic {
            peak_hz: 112.5,
            peak_transmissibility: 24.75,
            points: 120,
        },
        AnalysisResponse::Pareto {
            topologies: vec![
                "conduction".to_string(),
                "loop_heat_pipe".to_string(),
                "pumped_co2".to_string(),
            ],
            dt_k: vec![41.25, 18.0625, 9.5],
            mass_kg: vec![0.875, 1.3125, 2.25],
            mtbf_h: vec![62_500.0, 88_000.0, 71_250.0],
            front_hash: 0xfeed_face_8765_4321,
            evaluations: 1_000_448,
        },
    ]
}

#[test]
fn request_lines_round_trip_every_variant() {
    for (i, request) in all_requests().into_iter().enumerate() {
        let original = WireRequest {
            id: i as u64 + 1,
            priority: Priority::High,
            deadline_ms: Some(250),
            request,
        };
        let line = encode_request_line(&original);
        let decoded = decode_request_line(&line).expect("round trip");
        assert_eq!(decoded, original, "line: {line}");
    }
}

#[test]
fn request_line_defaults_priority_and_deadline() {
    let original = WireRequest {
        id: 7,
        priority: Priority::Normal,
        deadline_ms: None,
        request: AnalysisRequest::SebCapability {
            spec: seb_spec(),
            dt_limit_k: 25.0,
        },
    };
    let line = encode_request_line(&original);
    assert!(!line.contains("deadline_ms"));
    assert_eq!(decode_request_line(&line).expect("round trip"), original);
}

#[test]
fn response_lines_round_trip_every_variant() {
    for (i, response) in all_responses().into_iter().enumerate() {
        let original = WireResponse {
            id: i as u64 + 1,
            result: Ok(response),
        };
        let line = encode_response_line(&original);
        let decoded = decode_response_line(&line).expect("round trip");
        assert_eq!(decoded, original, "line: {line}");
    }
}

#[test]
fn error_responses_keep_their_stable_codes() {
    let errors = vec![
        Error::DeadlineExpired,
        Error::ShuttingDown,
        Error::QueueFull { capacity: 256 },
        Error::DryOut {
            detail: "loop heat pipe at 97 W".to_string(),
        },
        Error::Invalid {
            reason: "a \"quoted\" reason with a \\ backslash".to_string(),
        },
    ];
    for e in errors {
        let line = encode_response_line(&WireResponse {
            id: 3,
            result: Err(e.clone()),
        });
        let decoded = decode_response_line(&line).expect("round trip");
        match decoded.result {
            // Parameterless service errors round-trip exactly...
            Err(Error::DeadlineExpired) => assert_eq!(e, Error::DeadlineExpired),
            Err(Error::ShuttingDown) => assert_eq!(e, Error::ShuttingDown),
            // ...everything else keeps its code and message remotely.
            Err(Error::Remote { code, message }) => {
                assert_eq!(code, e.code());
                assert_eq!(message, e.to_string());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }
}

#[test]
fn malformed_lines_surface_as_wire_errors() {
    let cases = [
        "not json at all",
        "{\"id\":1}",
        "{\"id\":1,\"request\":{\"type\":\"no_such_analysis\",\"spec\":{}}}",
        "{\"id\":1,\"priority\":\"urgent\",\"request\":{}}",
        "{\"id\":-3,\"ok\":{\"type\":\"capability\",\"watts\":1}}",
    ];
    for line in cases {
        assert!(
            matches!(decode_request_line(line), Err(Error::Wire { .. })),
            "expected wire error for {line}"
        );
    }
    assert!(matches!(
        decode_response_line("{\"id\":1}"),
        Err(Error::Wire { .. })
    ));
}

#[test]
fn zero_deadline_round_trips_a_stable_invalid_code() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let mut client = SocketClient::connect(daemon.addr()).expect("connect");

    let request = AnalysisRequest::SebOperatingPoint {
        spec: seb_spec(),
        power_w: 40.0,
    };
    // `deadline_ms: 0` must come back as a stable `invalid` rejection
    // with the request's own id (checked inside `call_with`), not as a
    // `deadline_expired` after burning a queue slot.
    let err = client
        .call_with(request.clone(), Priority::Normal, Some(0))
        .expect_err("zero deadline must be rejected");
    match err {
        Error::Remote { code, message } => {
            assert_eq!(code, "invalid");
            assert!(message.contains("deadline_ms"), "message: {message}");
        }
        other => panic!("expected the invalid code, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_deadline, 0);

    // The same request with a real deadline still goes through.
    let answer = client
        .call_with(request, Priority::Normal, Some(60_000))
        .expect("nonzero deadline");
    assert!(matches!(answer, AnalysisResponse::OperatingPoint { .. }));

    daemon.shutdown();
    service.shutdown();
}

#[test]
fn socket_daemon_answers_calls_and_pipelined_batches() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(2)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let mut client = SocketClient::connect(daemon.addr()).expect("connect");

    let answer = client
        .call(AnalysisRequest::SebOperatingPoint {
            spec: SebSpec {
                seat: SeatKind::Aluminum,
                lhp: true,
                tilt_deg: 0.0,
                ambient_c: 25.0,
            },
            power_w: 40.0,
        })
        .expect("seb call");
    assert!(matches!(answer, AnalysisResponse::OperatingPoint { .. }));

    let batch: Vec<AnalysisRequest> = [0.5, 1.0, 1.5]
        .iter()
        .map(|&scale| AnalysisRequest::FvSteady {
            spec: plate_spec(),
            scale,
        })
        .collect();
    let results = client.call_batch(batch).expect("batch");
    assert_eq!(results.len(), 3);
    for r in results {
        assert!(matches!(r, Ok(AnalysisResponse::Field { .. })));
    }

    daemon.shutdown();
    service.shutdown();
}

#[test]
fn over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    // Twice the cap and no newline, written from a helper thread: the
    // daemon stops reading one byte past the cap, so the tail may
    // never be consumed and the write may fail once it closes.
    let mut writer = stream.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 * aeropack_serve::MAX_REQUEST_LINE]);
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("an error reply");
    let response = decode_response_line(reply.trim_end()).expect("a wire response");
    match response.result {
        Err(Error::Remote { code, message }) => {
            assert_eq!(code, "wire");
            assert!(message.contains("limit"), "message: {message}");
        }
        other => panic!("expected the wire code, got {other:?}"),
    }
    // The daemon closed the connection after the reply.
    let mut rest = String::new();
    assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));
    flood.join().expect("flood thread");

    // A new connection is served normally.
    let mut client = SocketClient::connect(daemon.addr()).expect("reconnect");
    let answer = client
        .call(AnalysisRequest::SebOperatingPoint {
            spec: seb_spec(),
            power_w: 40.0,
        })
        .expect("seb call");
    assert!(matches!(answer, AnalysisResponse::OperatingPoint { .. }));

    daemon.shutdown();
    service.shutdown();
}

// ---------------------------------------------------------------------
// Binary frame codec (the shard-worker protocol).
// ---------------------------------------------------------------------

#[test]
fn frames_round_trip_with_exact_f64_bits() {
    use aeropack_serve::wire::{decode_f64s, encode_f64s, read_frame, write_frame, FrameKind};
    let values = [
        0.0,
        -0.0,
        1.5,
        f64::MIN_POSITIVE,
        f64::MAX,
        -1.0 / 3.0,
        f64::INFINITY,
    ];
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::ApplyA, &encode_f64s(&values)).unwrap();
    write_frame(&mut buf, FrameKind::Done, &[]).unwrap();
    let mut cursor = &buf[..];
    let (kind, payload) = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(kind, FrameKind::ApplyA);
    let decoded = decode_f64s(&payload).unwrap();
    assert_eq!(decoded.len(), values.len());
    for (got, want) in decoded.iter().zip(&values) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    let (kind, payload) = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(kind, FrameKind::Done);
    assert!(payload.is_empty());
    // Clean end-of-stream between frames is None, not an error.
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn malformed_frames_are_rejected() {
    use aeropack_serve::wire::{decode_f64s, read_frame};
    // Truncated header.
    assert!(read_frame(&mut &[1u8, 0, 0][..]).is_err());
    // Unknown kind byte.
    assert!(read_frame(&mut &[0u8, 0, 0, 0, 99][..]).is_err());
    // Length prefix past the cap.
    assert!(read_frame(&mut &[0xff, 0xff, 0xff, 0xff, 1][..]).is_err());
    // Payload shorter than its declared length.
    assert!(read_frame(&mut &[4u8, 0, 0, 0, 3, 1, 2][..]).is_err());
    // A vector payload must be whole f64s.
    assert!(decode_f64s(&[0u8; 12]).is_err());
}

#[test]
fn slab_specs_round_trip_through_the_frame_payload() {
    use aeropack_serve::wire::{decode_slab_spec, encode_slab_spec};
    use aeropack_solver::{CsrMatrix, Partition, SlabSpec};
    let (nx, ny, nz) = (4, 3, 8);
    let n = nx * ny * nz;
    let a = CsrMatrix::from_row_fn(n, 1, move |i, row| {
        row.push((i, 6.5));
        if i >= nx * ny {
            row.push((i - nx * ny, -1.0));
        }
        if i + nx * ny < n {
            row.push((i + nx * ny, -1.0));
        }
        row.sort_by_key(|&(c, _)| c);
    });
    let part = Partition::new(n, Some((nx, ny, nz)), 4).unwrap();
    for (slab, tile_range) in part.shard_layout(2) {
        let spec = SlabSpec::extract(&a, &part, slab, &part.tiles()[tile_range]).unwrap();
        let decoded = decode_slab_spec(&encode_slab_spec(&spec)).unwrap();
        assert_eq!(decoded, spec);
    }
    // Garbage payloads fail cleanly.
    assert!(decode_slab_spec(&[0u8; 7]).is_err());
    let mut extra = encode_slab_spec(
        &SlabSpec::extract(&a, &part, part.shard_layout(1)[0].0, part.tiles()).unwrap(),
    );
    extra.push(0);
    assert!(decode_slab_spec(&extra).is_err());
}
