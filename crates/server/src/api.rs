//! Endpoint handlers: route one parsed [`Request`] to a [`Response`].
//!
//! All handlers are pure request → response functions over the shared
//! server state; transport concerns (timeouts, keep-alive, draining)
//! live in the connection loop, and every error path produces a typed
//! JSON body — a client never sees a hang or a bare connection reset
//! for a request the server actually read.

use std::sync::Arc;
use std::time::Duration;

use cicero_core::Backend;
use cicero_isa::Program;
use cicero_runtime::{Budget, BudgetKind, MatchOutcome, PinGuard, StreamError, StreamOptions};
use cicero_sim::ArchConfig;
use cicero_telemetry::{render_chrome_trace, JsonObject, TraceSpan};

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::registry::RegistryError;
use crate::Shared;

/// Whether `path` addresses the flight-recorder debug surface.
fn is_traces_path(path: &str) -> bool {
    path == "/debug/traces" || path.starts_with("/debug/traces/")
}

/// The `{id}` of a `/rulesets/{id}` path (`None` for the collection
/// itself or anything deeper).
fn ruleset_id(path: &str) -> Option<&str> {
    let id = path.strip_prefix("/rulesets/")?;
    (!id.is_empty() && !id.contains('/')).then_some(id)
}

/// Route a request to its handler. `root` is the request's trace span;
/// handlers hang their compile/execute/merge children off it.
pub(crate) fn handle(shared: &Shared, request: &Request, root: &TraceSpan) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/match") => handle_match(shared, request, root),
        ("POST", "/scan") => handle_scan(shared, request, root),
        ("POST", "/scan/stream") => handle_scan_stream(shared, request, root),
        ("GET", "/metrics") => handle_metrics(shared, request),
        ("GET", "/healthz") => handle_healthz(shared),
        ("POST", "/shutdown") => handle_shutdown(shared),
        ("GET", "/rulesets") => handle_ruleset_list(shared),
        ("PUT", _) if ruleset_id(path).is_some() => {
            handle_ruleset_put(shared, request, ruleset_id(path).unwrap())
        }
        ("GET", _) if ruleset_id(path).is_some() => {
            handle_ruleset_get(shared, ruleset_id(path).unwrap())
        }
        ("DELETE", _) if ruleset_id(path).is_some() => {
            handle_ruleset_delete(shared, ruleset_id(path).unwrap())
        }
        ("GET", _) if is_traces_path(path) => handle_traces(shared, request),
        (
            _,
            "/match" | "/scan" | "/scan/stream" | "/metrics" | "/healthz" | "/shutdown"
            | "/rulesets",
        ) => error_response(
            405,
            &format!("method {} not allowed on {}", request.method, request.path),
        ),
        _ if is_traces_path(path) || ruleset_id(path).is_some() => error_response(
            405,
            &format!("method {} not allowed on {}", request.method, request.path),
        ),
        _ => error_response(404, &format!("no such endpoint {:?}", request.path)),
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, JsonObject::new().field("error", message).finish())
}

/// The `X-Cicero-Fuel` / `X-Cicero-Deadline-Ms` headers as a [`Budget`].
fn budget_from_headers(request: &Request) -> Result<Budget, Response> {
    let mut budget = Budget::default();
    if let Some(value) = request.header("x-cicero-fuel") {
        let fuel: u64 = value
            .parse()
            .map_err(|_| error_response(400, &format!("bad X-Cicero-Fuel value {value:?}")))?;
        budget.fuel = Some(fuel);
    }
    if let Some(value) = request.header("x-cicero-deadline-ms") {
        let ms: u64 = value.parse().map_err(|_| {
            error_response(400, &format!("bad X-Cicero-Deadline-Ms value {value:?}"))
        })?;
        budget.deadline = Some(Duration::from_millis(ms));
    }
    Ok(budget)
}

/// The `X-Cicero-Backend` header (`sim` or `host`); absent, the
/// runtime's configured default (the server serves host-native unless
/// started with `--backend sim`).
fn backend_from_headers(shared: &Shared, request: &Request) -> Result<Backend, Response> {
    match request.header("x-cicero-backend") {
        None => Ok(shared.runtime.backend()),
        Some(value) => value
            .parse()
            .map_err(|e: String| error_response(400, &format!("bad X-Cicero-Backend value: {e}"))),
    }
}

/// The paper's `NxM` architecture naming, as also used by the CLI's
/// `--config` flag.
fn parse_arch_config(spec: &str) -> Result<ArchConfig, String> {
    let (n, m) =
        spec.split_once('x').ok_or_else(|| format!("config {spec:?} is not of the form NxM"))?;
    let n: usize = n.parse().map_err(|_| format!("bad core count in {spec:?}"))?;
    let m: usize = m.parse().map_err(|_| format!("bad engine count in {spec:?}"))?;
    if n == 1 {
        Ok(ArchConfig::old_organization(m))
    } else if n.is_power_of_two() {
        Ok(ArchConfig::new_organization(n, m))
    } else {
        Err(format!("core count {n} must be 1 (old organization) or a power of two"))
    }
}

/// The body shape shared by `/match` and `/scan`.
struct MatchBody {
    patterns: Vec<String>,
    input: Vec<u8>,
    config: ArchConfig,
}

/// The `/scan` body: patterns are optional because a `?ruleset=` scan
/// takes them from the registry.
struct ScanBody {
    patterns: Option<Vec<String>>,
    input: Vec<u8>,
    config: ArchConfig,
}

/// The `"patterns"` / `"pattern"` field pair; `Ok(None)` when neither
/// is present (the caller decides whether that is an error).
fn parse_patterns_field(doc: &Json) -> Result<Option<Vec<String>>, Response> {
    let patterns: Vec<String> = match (doc.get("patterns"), doc.get("pattern")) {
        (Some(list), None) => list
            .as_arr()
            .ok_or_else(|| error_response(400, "\"patterns\" must be an array of strings"))?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| error_response(400, "\"patterns\" must be an array of strings"))
            })
            .collect::<Result<_, _>>()?,
        (None, Some(Json::Str(pattern))) => vec![pattern.clone()],
        (None, Some(_)) => return Err(error_response(400, "\"pattern\" must be a string")),
        (Some(_), Some(_)) => {
            return Err(error_response(400, "provide \"patterns\" or \"pattern\", not both"))
        }
        (None, None) => return Ok(None),
    };
    if patterns.is_empty() {
        return Err(error_response(400, "\"patterns\" must name at least one pattern"));
    }
    Ok(Some(patterns))
}

fn parse_input_and_config(shared: &Shared, doc: &Json) -> Result<(Vec<u8>, ArchConfig), Response> {
    let input = doc
        .get("input")
        .and_then(Json::as_str)
        .ok_or_else(|| error_response(400, "missing \"input\" string field"))?
        .as_bytes()
        .to_vec();
    let config = match doc.get("config") {
        None => shared.config.clone(),
        Some(Json::Str(spec)) => parse_arch_config(spec).map_err(|e| error_response(400, &e))?,
        Some(_) => return Err(error_response(400, "\"config\" must be a string like \"16x1\"")),
    };
    Ok((input, config))
}

fn parse_json_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error_response(400, "request body is not UTF-8"))?;
    json::parse(text)
        .map_err(|e| error_response(400, &format!("request body is not valid JSON: {e}")))
}

fn parse_match_body(shared: &Shared, request: &Request) -> Result<MatchBody, Response> {
    let doc = parse_json_body(request)?;
    let patterns = parse_patterns_field(&doc)?
        .ok_or_else(|| error_response(400, "missing \"patterns\" (or \"pattern\") field"))?;
    let (input, config) = parse_input_and_config(shared, &doc)?;
    Ok(MatchBody { patterns, input, config })
}

fn parse_scan_body(shared: &Shared, request: &Request) -> Result<ScanBody, Response> {
    let doc = parse_json_body(request)?;
    let patterns = parse_patterns_field(&doc)?;
    let (input, config) = parse_input_and_config(shared, &doc)?;
    Ok(ScanBody { patterns, input, config })
}

/// The §6 batch granularity, mirroring the CLI's chunker: 500-byte
/// chunks, with an empty input still yielding one (empty) chunk.
fn chunk_input(input: &[u8]) -> Vec<Vec<u8>> {
    if input.is_empty() {
        return vec![Vec::new()];
    }
    input.chunks(workloads::CHUNK_BYTES).map(<[u8]>::to_vec).collect()
}

fn budget_kind_name(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::Fuel => "fuel",
        BudgetKind::Deadline => "deadline",
    }
}

/// Wrap per-row JSON objects and top-level summary fields into the final
/// response, downgrading the status to `429` on a tripped budget (the
/// partial rows still ship) or `500` on a worker fault.
fn verdict_status(budget_kind: Option<BudgetKind>, faults: usize) -> u16 {
    if budget_kind.is_some() {
        429
    } else if faults > 0 {
        500
    } else {
        200
    }
}

fn finish_with_budget(
    shared: &Shared,
    mut object: JsonObject,
    budget_kind: Option<BudgetKind>,
    faults: usize,
) -> Response {
    object = object.field("budget_exceeded", budget_kind.is_some());
    if let Some(kind) = budget_kind {
        object = object.field("kind", budget_kind_name(kind));
    }
    if faults > 0 {
        object = object.field("faults", faults as u64);
    }
    let status = verdict_status(budget_kind, faults);
    let response = Response::json(status, object.finish());
    if status == 429 {
        // The same p50-scaled clamp as admission 503s and tenant-limit
        // 429s: every backpressure path shares crate::retry_after_secs.
        response.with_header("retry-after", crate::retry_after_secs(&shared.telemetry).to_string())
    } else {
        response
    }
}

/// `POST /match`: each pattern is compiled through the runtime's cache
/// and matched independently over the whole input on its batch executor
/// (budgets, panic isolation). Body:
/// `{"patterns": [...], "input": "...", "config"?: "NxM"}`.
fn handle_match(shared: &Shared, request: &Request, root: &TraceSpan) -> Response {
    let budget = match budget_from_headers(request) {
        Ok(budget) => budget,
        Err(response) => return response,
    };
    let backend = match backend_from_headers(shared, request) {
        Ok(backend) => backend,
        Err(response) => return response,
    };
    let body = match parse_match_body(shared, request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let inputs = vec![body.input.clone()];
    let mut rows = Vec::new();
    let mut budget_kind = None;
    let mut faults = 0usize;
    for pattern in &body.patterns {
        let (program, cache_hit) = match shared.runtime.compile_traced(pattern, Some(root)) {
            Ok(compiled) => compiled,
            Err(e) => return error_response(400, &format!("pattern {pattern:?}: {e}")),
        };
        let batch = shared.runtime.run_batch_guarded_traced_on(
            backend,
            &program,
            &inputs,
            &body.config,
            &budget,
            Some(root),
        );
        let outcome = &batch.outcomes[0];
        let mut row = JsonObject::new().field("pattern", pattern.as_str());
        match outcome {
            MatchOutcome::Complete(report) => {
                row = row
                    .field("verdict", if report.accepted { "match" } else { "no-match" })
                    .field("matched", report.accepted)
                    .field("cycles", report.cycles);
                if let Some(position) = report.match_position {
                    row = row.field("match_position", position as u64);
                }
            }
            MatchOutcome::Budget { kind, partial } => {
                budget_kind = Some(*kind);
                row = row
                    .field("verdict", "budget")
                    .field("matched", false)
                    .field("kind", budget_kind_name(*kind));
                if let Some(partial) = partial {
                    row = row.field("partial_cycles", partial.cycles);
                }
            }
            MatchOutcome::Fault(message) => {
                faults += 1;
                row = row
                    .field("verdict", "fault")
                    .field("matched", false)
                    .field("fault", message.as_str());
            }
        }
        rows.push(row.field("cache_hit", cache_hit).finish());
    }
    let object = JsonObject::new()
        .field("input_bytes", body.input.len() as u64)
        .field("config", body.config.name())
        .field_raw("results", &format!("[{}]", rows.join(",")));
    finish_with_budget(shared, object, budget_kind, faults)
}

/// How a scan acquired its pattern set: compiled from the request body,
/// or pinned against a registry ruleset version. The pin (when present)
/// holds the version's drain accounting open for the whole scan, so a
/// concurrent `PUT` swap cannot release the version out from under it.
enum ScanSource {
    Inline { patterns: Vec<String>, program: Arc<Program> },
    Ruleset { pin: PinGuard, id: String },
}

impl ScanSource {
    fn patterns(&self) -> &[String] {
        match self {
            ScanSource::Inline { patterns, .. } => patterns,
            ScanSource::Ruleset { pin, .. } => pin.handle().patterns(),
        }
    }

    fn program(&self) -> &Arc<Program> {
        match self {
            ScanSource::Inline { program, .. } => program,
            ScanSource::Ruleset { pin, .. } => pin.program(),
        }
    }
}

/// Resolve `?ruleset={id}` to a pinned version, or compile the inline
/// pattern list. Ruleset scans must not also carry patterns — the
/// ruleset *is* the pattern source.
fn resolve_scan_source(
    shared: &Shared,
    request: &Request,
    patterns: Option<Vec<String>>,
    root: &TraceSpan,
) -> Result<ScanSource, Response> {
    match request.query_param("ruleset") {
        Some(id) => {
            if patterns.is_some() {
                return Err(error_response(
                    400,
                    "a ?ruleset= scan takes its patterns from the registry; \
                     drop the \"patterns\" field",
                ));
            }
            let pin = shared
                .registry
                .pin(id)
                .ok_or_else(|| error_response(404, &format!("no ruleset {id:?}")))?;
            root.annotate("ruleset", id);
            root.annotate("ruleset_version", pin.version());
            Ok(ScanSource::Ruleset { pin, id: id.to_owned() })
        }
        None => {
            let patterns = patterns.ok_or_else(|| {
                error_response(400, "missing \"patterns\" (or \"pattern\") field")
            })?;
            let (program, _cache_hit) = shared
                .runtime
                .compile_set_traced(&patterns, Some(root))
                .map_err(|e| error_response(400, &format!("compiling the pattern set: {e}")))?;
            Ok(ScanSource::Inline { patterns, program })
        }
    }
}

/// `POST /scan`: the patterns compile as one multi-matching set (through
/// the LRU cache), the input is scanned in 500-byte chunks on the batch
/// executor, and per-pattern chunk counts come from the runtime's
/// all-matches pass ([`Runtime::pattern_hits_on`]) so overlapping set
/// members are all reported — the same accounting as
/// `cicero scan --jobs N`. With `?ruleset={id}`, the pattern set comes
/// from the registry instead of the body: the scan pins the version
/// current at admission and the response is tagged with it
/// (`x-cicero-ruleset-version`).
///
/// [`Runtime::pattern_hits_on`]: cicero_runtime::Runtime::pattern_hits_on
fn handle_scan(shared: &Shared, request: &Request, root: &TraceSpan) -> Response {
    let budget = match budget_from_headers(request) {
        Ok(budget) => budget,
        Err(response) => return response,
    };
    let backend = match backend_from_headers(shared, request) {
        Ok(backend) => backend,
        Err(response) => return response,
    };
    let body = match parse_scan_body(shared, request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let source = match resolve_scan_source(shared, request, body.patterns, root) {
        Ok(source) => source,
        Err(response) => return response,
    };
    let program = Arc::clone(source.program());
    let chunks = chunk_input(&body.input);
    let batch = shared.runtime.run_batch_guarded_traced_on(
        backend,
        &program,
        &chunks,
        &body.config,
        &budget,
        Some(root),
    );

    // Merging the per-chunk outcomes re-runs accepted chunks through the
    // backend's all-matches pass, which is real work worth its own span.
    let merge_span = root.child("merge");
    let per_pattern =
        shared.runtime.pattern_hits_on(backend, &program, &chunks, &batch, source.patterns().len());
    let mut cycles = 0u64;
    let mut budget_kind = None;
    let mut faults = 0usize;
    for outcome in &batch.outcomes {
        match outcome {
            MatchOutcome::Complete(report) => cycles += report.cycles,
            MatchOutcome::Budget { kind, partial } => {
                budget_kind = Some(*kind);
                if let Some(partial) = partial {
                    cycles += partial.cycles;
                }
            }
            MatchOutcome::Fault(_) => faults += 1,
        }
    }
    merge_span.annotate("chunks", chunks.len());
    merge_span.annotate("pattern_hits", per_pattern.iter().sum::<u64>());
    merge_span.close();

    let rows: Vec<String> = source
        .patterns()
        .iter()
        .zip(&per_pattern)
        .enumerate()
        .map(|(id, (pattern, count))| {
            JsonObject::new()
                .field("id", id as u64)
                .field("pattern", pattern.as_str())
                .field("chunks_matched", *count)
                .finish()
        })
        .collect();
    let mut object = JsonObject::new();
    if let ScanSource::Ruleset { pin, id } = &source {
        object = object.field("ruleset", id.as_str()).field("ruleset_version", pin.version());
    }
    let object = object
        .field("chunks", chunks.len() as u64)
        .field("chunk_bytes", workloads::CHUNK_BYTES as u64)
        .field("completed", batch.completed() as u64)
        .field("matched", per_pattern.iter().any(|c| *c > 0))
        .field("cycles", cycles)
        .field("jobs", batch.jobs as u64)
        .field("worker_restarts", batch.worker_restarts)
        .field_raw("per_pattern", &format!("[{}]", rows.join(",")));
    let response = finish_with_budget(shared, object, budget_kind, faults);
    match &source {
        ScanSource::Ruleset { pin, .. } => {
            response.with_header("x-cicero-ruleset-version", pin.version().to_owned())
        }
        ScanSource::Inline { .. } => response,
    }
}

/// `POST /scan/stream?ruleset={id}`: the raw request body — sent with
/// `Transfer-Encoding: chunked` or a plain `Content-Length` — streams
/// through [`Runtime::scan_stream_traced_on`] against the pinned ruleset
/// version.
/// The verdict is chunk-split invariant end to end: neither the HTTP
/// chunk boundaries (reassembled by the framing layer) nor the engine's
/// own chunking (`X-Cicero-Chunk-Size`, default 64 KiB) can change any
/// byte of the response, which is why the response carries no
/// wall-clock or buffering fields.
///
/// [`Runtime::scan_stream_traced_on`]: cicero_runtime::Runtime::scan_stream_traced_on
fn handle_scan_stream(shared: &Shared, request: &Request, root: &TraceSpan) -> Response {
    let budget = match budget_from_headers(request) {
        Ok(budget) => budget,
        Err(response) => return response,
    };
    let backend = match backend_from_headers(shared, request) {
        Ok(backend) => backend,
        Err(response) => return response,
    };
    let Some(id) = request.query_param("ruleset") else {
        return error_response(
            400,
            "/scan/stream takes raw input bytes as its body, so the pattern set \
             must come from the registry: add ?ruleset={id}",
        );
    };
    let Some(pin) = shared.registry.pin(id) else {
        return error_response(404, &format!("no ruleset {id:?}"));
    };
    root.annotate("ruleset", id);
    root.annotate("ruleset_version", pin.version());
    let mut options = StreamOptions { budget, ..StreamOptions::default() };
    if let Some(value) = request.header("x-cicero-chunk-size") {
        match value.parse::<usize>() {
            Ok(size) if size > 0 => options.chunk_size = size,
            _ => return error_response(400, &format!("bad X-Cicero-Chunk-Size value {value:?}")),
        }
    }
    let config = match request.header("x-cicero-config") {
        None => shared.config.clone(),
        Some(spec) => match parse_arch_config(spec) {
            Ok(config) => config,
            Err(e) => return error_response(400, &e),
        },
    };
    let report = match shared.runtime.scan_stream_traced_on(
        backend,
        pin.program(),
        std::io::Cursor::new(request.body.clone()),
        &config,
        &options,
        Some(root),
    ) {
        Ok(report) => report,
        Err(e @ StreamError::Options(_)) => return error_response(400, &e.to_string()),
        Err(e) => return error_response(500, &format!("streaming scan failed: {e}")),
    };
    let mut object = JsonObject::new()
        .field("ruleset", id)
        .field("ruleset_version", pin.version())
        .field("input_bytes", request.body.len() as u64)
        .field("bytes_scanned", report.bytes)
        .field("chunks", report.chunks)
        .field("chunk_bytes", options.chunk_size as u64);
    let mut budget_kind = None;
    let mut faults = 0usize;
    match &report.outcome {
        MatchOutcome::Complete(exec) => {
            object = object
                .field("verdict", if exec.accepted { "match" } else { "no-match" })
                .field("matched", exec.accepted)
                .field("cycles", exec.cycles);
            if let Some(position) = exec.match_position {
                object = object.field("match_position", position as u64);
            }
        }
        MatchOutcome::Budget { kind, partial } => {
            budget_kind = Some(*kind);
            object = object.field("verdict", "budget").field("matched", false);
            if let Some(partial) = partial {
                object = object.field("partial_cycles", partial.cycles);
            }
        }
        MatchOutcome::Fault(message) => {
            faults = 1;
            object = object
                .field("verdict", "fault")
                .field("matched", false)
                .field("fault", message.as_str());
        }
    }
    finish_with_budget(shared, object, budget_kind, faults)
        .with_header("x-cicero-ruleset-version", pin.version().to_owned())
}

/// Map a registry failure to its HTTP shape.
fn registry_error_response(error: &RegistryError) -> Response {
    let status = match error {
        RegistryError::InvalidId(_) | RegistryError::Compile(_) => 400,
        RegistryError::NotFound(_) => 404,
        RegistryError::Io(_) | RegistryError::Corrupt(_) => 500,
    };
    error_response(status, &error.to_string())
}

/// The JSON rendering of a pattern list.
fn patterns_json(patterns: &[String]) -> String {
    let items: Vec<String> =
        patterns.iter().map(|p| format!("\"{}\"", cicero_telemetry::escape_json(p))).collect();
    format!("[{}]", items.join(","))
}

/// `PUT /rulesets/{id}`: compile the body's pattern set once, install it
/// as the current version (content-hash tagged), and persist the
/// compiled artifact. `201` on first install, `200` on a hot swap — the
/// replaced version keeps serving its in-flight scans until they drain.
fn handle_ruleset_put(shared: &Shared, request: &Request, id: &str) -> Response {
    let doc = match parse_json_body(request) {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    let patterns = match parse_patterns_field(&doc) {
        Ok(Some(patterns)) => patterns,
        Ok(None) => return error_response(400, "missing \"patterns\" (or \"pattern\") field"),
        Err(response) => return response,
    };
    let outcome = match shared.registry.put(&shared.runtime, id, patterns) {
        Ok(outcome) => outcome,
        Err(e) => return registry_error_response(&e),
    };
    let status = if outcome.replaced.is_some() { 200 } else { 201 };
    let mut object = JsonObject::new()
        .field("id", id)
        .field("version", outcome.version.as_str())
        .field("cache_hit", outcome.cache_hit);
    if let Some(replaced) = &outcome.replaced {
        object = object.field("replaced", replaced.as_str());
    }
    Response::json(status, object.finish()).with_header("x-cicero-ruleset-version", outcome.version)
}

/// `GET /rulesets/{id}`: the current version, its pattern list, and the
/// live pin count.
fn handle_ruleset_get(shared: &Shared, id: &str) -> Response {
    let Some(info) = shared.registry.get(id) else {
        return error_response(404, &format!("no ruleset {id:?}"));
    };
    Response::json(
        200,
        JsonObject::new()
            .field("id", info.id.as_str())
            .field("version", info.version.as_str())
            .field("pins", info.pins)
            .field_raw("patterns", &patterns_json(&info.patterns))
            .finish(),
    )
    .with_header("x-cicero-ruleset-version", info.version)
}

/// `DELETE /rulesets/{id}`: retire the current version (in-flight scans
/// drain on it) and unlink the persisted artifact.
fn handle_ruleset_delete(shared: &Shared, id: &str) -> Response {
    match shared.registry.delete(id) {
        Ok(version) => Response::json(
            200,
            JsonObject::new().field("id", id).field("deleted_version", version).finish(),
        ),
        Err(e) => registry_error_response(&e),
    }
}

/// `GET /rulesets`: every ruleset with its current version.
fn handle_ruleset_list(shared: &Shared) -> Response {
    let rows: Vec<String> = shared
        .registry
        .list()
        .into_iter()
        .map(|info| {
            JsonObject::new()
                .field("id", info.id.as_str())
                .field("version", info.version.as_str())
                .field("patterns", info.patterns.len() as u64)
                .field("pins", info.pins)
                .finish()
        })
        .collect();
    Response::json(
        200,
        JsonObject::new().field_raw("rulesets", &format!("[{}]", rows.join(","))).finish(),
    )
}

/// `GET /metrics?format=summary|jsonl|prometheus`: the unified telemetry
/// dump, including the Prometheus text exposition format scrapers expect.
fn handle_metrics(shared: &Shared, request: &Request) -> Response {
    shared.refresh_gauges();
    match request.query_param("format").unwrap_or("summary") {
        "summary" => Response::text(200, shared.telemetry.render_summary()),
        "jsonl" => Response {
            status: 200,
            headers: Vec::new(),
            content_type: "application/jsonl",
            body: shared.telemetry.render_jsonl().into_bytes(),
        },
        "prometheus" => Response {
            status: 200,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: shared.telemetry.render_prometheus().into_bytes(),
        },
        other => error_response(
            400,
            &format!("unknown format {other:?} (use summary, jsonl, or prometheus)"),
        ),
    }
}

/// `GET /debug/traces[/{request_id}]`: the flight recorder. The index
/// lists retained traces (`?format=chrome` exports them all as one
/// Chrome `trace_event` document); a request id fetches one trace as
/// span-tree JSON (`?format=chrome` or `?format=tree` re-render it).
fn handle_traces(shared: &Shared, request: &Request) -> Response {
    let format = request.query_param("format").unwrap_or("json");
    let id = request.path.strip_prefix("/debug/traces").unwrap_or("").trim_start_matches('/');
    if id.is_empty() {
        return match format {
            "json" => Response::json(200, shared.recorder.render_index_json()),
            "chrome" => Response::json(200, shared.recorder.render_chrome_json()),
            other => error_response(400, &format!("unknown format {other:?} (use json or chrome)")),
        };
    }
    let Some(trace) = shared.recorder.get(id) else {
        return error_response(404, &format!("no retained trace for request id {id:?}"));
    };
    match format {
        "json" => Response::json(200, trace.render_json(shared.recorder.is_slow(&trace))),
        "chrome" => Response::json(200, render_chrome_trace(&[trace])),
        "tree" => Response::text(200, trace.render_tree()),
        other => {
            error_response(400, &format!("unknown format {other:?} (use json, chrome, or tree)"))
        }
    }
}

/// `GET /healthz`: liveness plus the drain state.
fn handle_healthz(shared: &Shared) -> Response {
    Response::json(
        200,
        JsonObject::new()
            .field("status", "ok")
            .field("draining", shared.is_draining())
            .field("requests", shared.requests.load(std::sync::atomic::Ordering::SeqCst))
            .field("cache_entries", shared.runtime.cache().stats().entries as u64)
            .finish(),
    )
}

/// `POST /shutdown`: begin draining. The acceptor stops taking
/// connections; queued and in-flight requests (including this one)
/// complete.
fn handle_shutdown(shared: &Shared) -> Response {
    shared.shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    shared.telemetry.counter_add("server.shutdown_requests", 1);
    Response::json(200, JsonObject::new().field("status", "draining").finish())
}
