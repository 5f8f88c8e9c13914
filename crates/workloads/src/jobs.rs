//! Real Jobs 1-4 as operator DAGs for the threaded runtime.
//!
//! These are the actual user-logic implementations (the simulator uses the
//! rate-level models in the sibling modules; examples and integration
//! tests run these for real):
//!
//! * **Job 1**: GeoHash per edit → windowed per-geohash TopK of updated
//!   articles → global TopK (1-minute windows become one statistics
//!   period).
//! * **Job 2**: extract delays → sum delays per airplane per year.
//! * **Job 3**: Job 2 + sum delays per route (origin, destination).
//! * **Job 4**: Job 3 + weather rainscore, route ⨝ rainscore join with
//!   courier efficiency per rainscore decade, and store operators.

use std::collections::BTreeMap;
use std::sync::Arc;

use albic_engine::codec::{Reader, Writer};
use albic_engine::operator::{Emissions, Operator, StateBox};
use albic_engine::topology::{Topology, TopologyBuilder};
use albic_engine::tuple::{Tuple, Value};
use albic_types::OperatorId;

// ---------------------------------------------------------------------
// Shared state shape: a string-keyed accumulator map.
// ---------------------------------------------------------------------

type MapState = BTreeMap<String, f64>;

fn map_state_new() -> StateBox {
    Box::new(MapState::new())
}

fn map_state_ser(state: &StateBox) -> Vec<u8> {
    let m = state.downcast_ref::<MapState>().expect("map state");
    let mut w = Writer::new();
    w.put_map_f64(m);
    w.into_bytes()
}

fn map_state_de(bytes: &[u8]) -> StateBox {
    let m = Reader::new(bytes).get_map_f64().unwrap_or_default();
    Box::new(m)
}

fn as_map(state: &mut StateBox) -> &mut MapState {
    state.downcast_mut::<MapState>().expect("map state")
}

// ---------------------------------------------------------------------
// Job 1 operators.
// ---------------------------------------------------------------------

/// Computes a GeoHash for each edit and re-keys the stream by it.
///
/// The dataset has no location attribute; per the paper, GeoHash values
/// are drawn uniformly over a grid covering Denmark (deterministic per
/// article).
#[derive(Debug, Default)]
pub struct GeoHashOp;

impl GeoHashOp {
    fn geohash_for(article: &str) -> String {
        // Denmark bounding box ≈ lat 54.5-57.8, lon 8.0-12.8; derive a
        // deterministic cell from the article name.
        let h = albic_engine::tuple::hash_key(&article);
        let lat_cell = (h >> 8) % 64;
        let lon_cell = h % 64;
        format!("dk-{lat_cell:02}-{lon_cell:02}")
    }
}

impl Operator for GeoHashOp {
    fn name(&self) -> &str {
        "geohash"
    }
    fn new_state(&self) -> StateBox {
        Box::new(())
    }
    fn serialize_state(&self, _s: &StateBox) -> Vec<u8> {
        Vec::new()
    }
    fn deserialize_state(&self, _b: &[u8]) -> StateBox {
        Box::new(())
    }
    fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
        let Some(fields) = tuple.value.as_list() else {
            return;
        };
        let Some(article) = fields.first().and_then(Value::as_str) else {
            return;
        };
        let gh = Self::geohash_for(article);
        out.emit(Tuple::keyed(
            &gh,
            Value::List(vec![
                Value::Str(gh.clone()),
                Value::Str(article.to_string()),
            ]),
            tuple.ts,
        ));
    }
}

/// Windowed TopK of updated articles per geohash cell; flushes the window
/// each statistics period.
#[derive(Debug)]
pub struct TopKWindowOp {
    /// How many entries each window emission carries.
    pub k: usize,
}

impl Operator for TopKWindowOp {
    fn name(&self) -> &str {
        "topk-window"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let Some(fields) = tuple.value.as_list() else {
            return;
        };
        let Some(article) = fields.get(1).and_then(Value::as_str) else {
            return;
        };
        *as_map(state).entry(article.to_string()).or_insert(0.0) += 1.0;
    }
    fn on_period_end(&self, state: &mut StateBox, out: &mut Emissions) {
        let m = as_map(state);
        if m.is_empty() {
            return;
        }
        let mut entries: Vec<(&String, &f64)> = m.iter().collect();
        entries.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
        let top: Vec<Value> = entries
            .into_iter()
            .take(self.k)
            .flat_map(|(a, c)| [Value::Str(a.clone()), Value::Float(*c)])
            .collect();
        out.emit(Tuple::keyed(&"global-topk", Value::List(top), 0));
        m.clear();
    }
    fn period_end_mutates(&self) -> bool {
        true // the window flush clears the counts
    }
    fn cost_per_tuple(&self) -> f64 {
        1.5 // window maintenance is heavier than stateless mapping
    }
}

/// Merges per-cell TopK lists into the global TopK.
#[derive(Debug)]
pub struct GlobalTopKOp {
    /// Global list length.
    pub k: usize,
}

impl Operator for GlobalTopKOp {
    fn name(&self) -> &str {
        "global-topk"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let Some(items) = tuple.value.as_list() else {
            return;
        };
        let m = as_map(state);
        let mut i = 0;
        while i + 1 < items.len() {
            if let (Some(article), Some(count)) = (items[i].as_str(), items[i + 1].as_float()) {
                *m.entry(article.to_string()).or_insert(0.0) += count;
            }
            i += 2;
        }
        // Keep only the strongest `4k` candidates to bound state.
        if m.len() > self.k * 4 {
            let mut entries: Vec<(String, f64)> = m.iter().map(|(a, c)| (a.clone(), *c)).collect();
            entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            m.clear();
            for (a, c) in entries.into_iter().take(self.k * 4) {
                m.insert(a, c);
            }
        }
    }
}

/// Build the Real Job 1 topology. Returns `(topology, [src, geohash,
/// topk, global])` where `src` is the injection point for raw edits.
pub fn job1_topology(groups_per_op: u32) -> (Topology, Vec<OperatorId>) {
    let mut b = TopologyBuilder::new();
    let src = b.source(
        "wiki-src",
        groups_per_op,
        Arc::new(albic_engine::operator::Identity),
    );
    let gh = b.operator("geohash", groups_per_op, Arc::new(GeoHashOp));
    let topk = b.operator("topk", groups_per_op, Arc::new(TopKWindowOp { k: 10 }));
    let global = b.operator(
        "global-topk",
        groups_per_op,
        Arc::new(GlobalTopKOp { k: 10 }),
    );
    b.edge(src, gh);
    b.edge(gh, topk);
    b.edge(topk, global);
    let t = b.build().expect("job 1 topology is a DAG");
    (t, vec![src, gh, topk, global])
}

// ---------------------------------------------------------------------
// Jobs 2/3 operators.
// ---------------------------------------------------------------------

/// Extracts `(airplane, route, year, delay)` from raw flight records and
/// emits one tuple keyed by airplane and (for Job 3) one keyed by route.
#[derive(Debug, Default)]
pub struct ExtractDelaysOp;

impl Operator for ExtractDelaysOp {
    fn name(&self) -> &str {
        "extract-delays"
    }
    fn new_state(&self) -> StateBox {
        Box::new(())
    }
    fn serialize_state(&self, _s: &StateBox) -> Vec<u8> {
        Vec::new()
    }
    fn deserialize_state(&self, _b: &[u8]) -> StateBox {
        Box::new(())
    }
    fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let (Some(plane), Some(origin), Some(dest)) = (
            f.first().and_then(Value::as_str),
            f.get(1).and_then(Value::as_str),
            f.get(2).and_then(Value::as_str),
        ) else {
            return;
        };
        let delay = f.get(4).and_then(Value::as_float).unwrap_or(0.0);
        let year = f.get(5).and_then(Value::as_int).unwrap_or(0);
        let route = format!("{origin}->{dest}");
        out.emit(Tuple::keyed(
            &plane,
            Value::List(vec![
                Value::Str(plane.to_string()),
                Value::Str(route),
                Value::Int(year),
                Value::Float(delay),
            ]),
            tuple.ts,
        ));
    }
}

/// Sums arrival delays per airplane per year.
#[derive(Debug, Default)]
pub struct SumDelaysByPlaneOp;

impl Operator for SumDelaysByPlaneOp {
    fn name(&self) -> &str {
        "sum-delays-plane"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let (Some(plane), Some(year), Some(delay)) = (
            f.first().and_then(Value::as_str),
            f.get(2).and_then(Value::as_int),
            f.get(3).and_then(Value::as_float),
        ) else {
            return;
        };
        *as_map(state)
            .entry(format!("{plane}:{year}"))
            .or_insert(0.0) += delay;
    }
}

/// Sums delays per route (same origin and destination airports).
#[derive(Debug, Default)]
pub struct RouteDelayOp;

impl Operator for RouteDelayOp {
    fn name(&self) -> &str {
        "route-delay"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let (Some(route), Some(delay)) = (
            f.get(1).and_then(Value::as_str),
            f.get(3).and_then(Value::as_float),
        ) else {
            return;
        };
        let m = as_map(state);
        let sum = m.entry(route.to_string()).or_insert(0.0);
        *sum += delay;
        out.emit(Tuple::keyed(
            &route,
            Value::List(vec![Value::Str(route.to_string()), Value::Float(*sum)]),
            tuple.ts,
        ));
    }
}

/// A rekeying shim: Job 3 partitions RouteDelay's *input* by route, so
/// the extract operator's airplane-keyed output must be re-keyed.
#[derive(Debug, Default)]
pub struct RekeyByRouteOp;

impl Operator for RekeyByRouteOp {
    fn name(&self) -> &str {
        "rekey-route"
    }
    fn new_state(&self) -> StateBox {
        Box::new(())
    }
    fn serialize_state(&self, _s: &StateBox) -> Vec<u8> {
        Vec::new()
    }
    fn deserialize_state(&self, _b: &[u8]) -> StateBox {
        Box::new(())
    }
    fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        if let Some(route) = f.get(1).and_then(Value::as_str) {
            out.emit(Tuple::keyed(&route, tuple.value.clone(), tuple.ts));
        }
    }
}

/// Build the Real Job 2 topology: `src → extract → sum-by-plane`.
pub fn job2_topology(groups_per_op: u32) -> (Topology, Vec<OperatorId>) {
    let mut b = TopologyBuilder::new();
    let src = b.source(
        "flights-src",
        groups_per_op,
        Arc::new(albic_engine::operator::Identity),
    );
    let extract = b.operator("extract", groups_per_op, Arc::new(ExtractDelaysOp));
    let sum = b.operator("sum-by-plane", groups_per_op, Arc::new(SumDelaysByPlaneOp));
    b.edge(src, extract);
    b.edge(extract, sum);
    let t = b.build().expect("job 2 topology is a DAG");
    (t, vec![src, extract, sum])
}

/// Build the Real Job 3 topology: Job 2 plus `extract → rekey → route-delay`.
pub fn job3_topology(groups_per_op: u32) -> (Topology, Vec<OperatorId>) {
    let mut b = TopologyBuilder::new();
    let src = b.source(
        "flights-src",
        groups_per_op,
        Arc::new(albic_engine::operator::Identity),
    );
    let extract = b.operator("extract", groups_per_op, Arc::new(ExtractDelaysOp));
    let sum = b.operator("sum-by-plane", groups_per_op, Arc::new(SumDelaysByPlaneOp));
    let rekey = b.operator("rekey-route", groups_per_op, Arc::new(RekeyByRouteOp));
    let route = b.operator("route-delay", groups_per_op, Arc::new(RouteDelayOp));
    b.edge(src, extract);
    b.edge(extract, sum);
    b.edge(extract, rekey);
    b.edge(rekey, route);
    let t = b.build().expect("job 3 topology is a DAG");
    (t, vec![src, extract, sum, rekey, route])
}

// ---------------------------------------------------------------------
// Job 4 operators.
// ---------------------------------------------------------------------

/// Computes a rainscore (0-100): precipitation as a percentage of the
/// historically observed maximum per station, re-keyed by route.
#[derive(Debug, Default)]
pub struct RainScoreOp;

impl Operator for RainScoreOp {
    fn name(&self) -> &str {
        "rainscore"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let (Some(station), Some(precip)) = (
            f.first().and_then(Value::as_str),
            f.get(2).and_then(Value::as_float),
        ) else {
            return;
        };
        let m = as_map(state);
        let hist_max = m.entry(station.to_string()).or_insert(1.0);
        if precip > *hist_max {
            *hist_max = precip;
        }
        let score = (100.0 * precip / *hist_max).clamp(0.0, 100.0);
        // Stations serve deterministic routes.
        let h = albic_engine::tuple::hash_key(&station);
        let route = format!("apt-{}->apt-{}", h % 120, (h / 7) % 120);
        out.emit(Tuple::keyed(
            &route,
            Value::List(vec![Value::Str(route.clone()), Value::Float(score)]),
            tuple.ts,
        ));
    }
}

/// Joins each route's delay with its latest rainscore and emits courier
/// efficiency per rainscore decade.
#[derive(Debug, Default)]
pub struct JoinEfficiencyOp;

impl Operator for JoinEfficiencyOp {
    fn name(&self) -> &str {
        "join-efficiency"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let Some(route) = f.first().and_then(Value::as_str) else {
            return;
        };
        let m = as_map(state);
        match f.len() {
            // Rainscore side: remember the latest score for the route.
            2 if f.get(1).and_then(Value::as_float).is_some() => {
                let score = f[1].as_float().unwrap();
                m.insert(format!("score:{route}"), score);
                // Delay tuples look identical (route, sum) — disambiguate
                // by the stored kind below instead.
            }
            _ => {}
        }
        // Route-delay side carries (route, delay_sum): join if we have a
        // score. (Both sides are 2-field lists; treat the second emission
        // for a route as the delay side.)
        if let Some(delay) = f.get(1).and_then(Value::as_float) {
            if let Some(score) = m.get(&format!("score:{route}")).copied() {
                let decade = ((score / 10.0).floor() as i64).clamp(0, 9);
                out.emit(Tuple::keyed(
                    &format!("decade-{decade}"),
                    Value::List(vec![Value::Int(decade), Value::Float(delay)]),
                    tuple.ts,
                ));
            }
        }
    }
}

/// Store operator: accumulates results as a local "relational database"
/// (per-key totals), written out per period.
#[derive(Debug, Default)]
pub struct StoreOp;

impl Operator for StoreOp {
    fn name(&self) -> &str {
        "store"
    }
    fn new_state(&self) -> StateBox {
        map_state_new()
    }
    fn serialize_state(&self, s: &StateBox) -> Vec<u8> {
        map_state_ser(s)
    }
    fn deserialize_state(&self, b: &[u8]) -> StateBox {
        map_state_de(b)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let Some(f) = tuple.value.as_list() else {
            return;
        };
        let key = match f.first() {
            Some(Value::Int(d)) => format!("decade-{d}"),
            Some(Value::Str(s)) => s.clone(),
            _ => return,
        };
        let v = f.get(1).and_then(Value::as_float).unwrap_or(1.0);
        *as_map(state).entry(key).or_insert(0.0) += v;
    }
}

/// Build the Real Job 4 topology.
///
/// Returns `(topology, ids)` with
/// `ids = [flights_src, extract, sum, rekey, route, weather_src,
/// rainscore, join, store]`.
pub fn job4_topology(groups_per_op: u32) -> (Topology, Vec<OperatorId>) {
    let mut b = TopologyBuilder::new();
    let fsrc = b.source(
        "flights-src",
        groups_per_op,
        Arc::new(albic_engine::operator::Identity),
    );
    let extract = b.operator("extract", groups_per_op, Arc::new(ExtractDelaysOp));
    let sum = b.operator("sum-by-plane", groups_per_op, Arc::new(SumDelaysByPlaneOp));
    let rekey = b.operator("rekey-route", groups_per_op, Arc::new(RekeyByRouteOp));
    let route = b.operator("route-delay", groups_per_op, Arc::new(RouteDelayOp));
    let wsrc = b.source(
        "weather-src",
        groups_per_op,
        Arc::new(albic_engine::operator::Identity),
    );
    let rain = b.operator("rainscore", groups_per_op, Arc::new(RainScoreOp));
    let join = b.operator("join-efficiency", groups_per_op, Arc::new(JoinEfficiencyOp));
    let store = b.operator("store", groups_per_op, Arc::new(StoreOp));
    b.edge(fsrc, extract);
    b.edge(extract, sum);
    b.edge(extract, rekey);
    b.edge(rekey, route);
    b.edge(wsrc, rain);
    b.edge(rain, join);
    b.edge(route, join);
    b.edge(join, store);
    let t = b.build().expect("job 4 topology is a DAG");
    (
        t,
        vec![fsrc, extract, sum, rekey, route, wsrc, rain, join, store],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airline::AirlineOnTimeStream;
    use crate::weather::GsodWeatherStream;
    use crate::wikipedia::WikipediaEditStream;
    use albic_engine::routing::RoutingTable;
    use albic_engine::runtime::{Runtime, RuntimeConfig};
    use albic_engine::transport::TransportOptions;
    use albic_engine::{Cluster, CostModel};
    use albic_types::NodeId;

    fn run_job(
        topology: Topology,
        injections: Vec<(OperatorId, Vec<Tuple>)>,
        nodes: usize,
    ) -> albic_engine::PeriodStats {
        let cluster = Cluster::homogeneous(nodes);
        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &ids);
        let (cfg, options) = (RuntimeConfig::default(), TransportOptions::InProcess);
        let mut rt = Runtime::start_with_options(
            topology,
            cluster,
            routing,
            CostModel::default(),
            cfg,
            options,
        )
        .expect("in-process workers start without I/O");
        for (op, tuples) in injections {
            rt.inject(op, tuples);
        }
        rt.quiesce();
        let stats = rt.end_period();
        rt.shutdown();
        stats
    }

    #[test]
    fn job1_runs_end_to_end() {
        let (t, ids) = job1_topology(8);
        let stream = WikipediaEditStream::new(400.0, 3);
        let stats = run_job(t, vec![(ids[0], stream.tuples(0))], 3);
        assert!(stats.total_tuples > 400.0, "all operators processed tuples");
        assert!(stats.comm_tuples > 0.0);
    }

    #[test]
    fn job2_sums_delays_per_plane() {
        let (t, ids) = job2_topology(8);
        let stream = AirlineOnTimeStream::new(300.0, 3);
        let stats = run_job(t, vec![(ids[0], stream.tuples(0))], 2);
        // src + extract + sum all touched tuples.
        assert!(stats.total_tuples >= 3.0 * 250.0);
    }

    #[test]
    fn job3_routes_flow_to_route_delay() {
        let (t, ids) = job3_topology(8);
        let stream = AirlineOnTimeStream::new(200.0, 3);
        let stats = run_job(t, vec![(ids[0], stream.tuples(0))], 2);
        // route-delay groups processed something.
        let route_groups = t_groups(&stats, 4, 8);
        assert!(
            route_groups > 0.0,
            "route-delay operator must receive traffic"
        );
    }

    #[test]
    fn job4_produces_store_updates() {
        let (t, ids) = job4_topology(6);
        let flights = AirlineOnTimeStream::new(300.0, 4);
        let weather = GsodWeatherStream::new(100, 4);
        let stats = run_job(
            t,
            vec![(ids[0], flights.tuples(0)), (ids[5], weather.tuples(0))],
            3,
        );
        let store_tuples = t_groups(&stats, 8, 6);
        assert!(
            store_tuples > 0.0,
            "store operator must receive joined results"
        );
    }

    /// Sum of tuple counts over operator `op_index`'s groups.
    fn t_groups(stats: &albic_engine::PeriodStats, op_index: usize, per_op: u32) -> f64 {
        let base = op_index * per_op as usize;
        // group_loads is in load units but zero iff no tuples.
        stats.group_loads[base..base + per_op as usize].iter().sum()
    }

    #[test]
    fn geohash_cells_cover_denmark_grid() {
        let a = GeoHashOp::geohash_for("article-1");
        let b = GeoHashOp::geohash_for("article-2");
        assert!(a.starts_with("dk-"));
        assert_eq!(a, GeoHashOp::geohash_for("article-1"));
        assert_ne!(a, b);
    }

    #[test]
    fn topk_window_flushes_and_clears() {
        let op = TopKWindowOp { k: 2 };
        let mut state = op.new_state();
        let mut out = Emissions::new();
        for (article, n) in [("a", 5), ("b", 3), ("c", 1)] {
            for _ in 0..n {
                op.process(
                    &Tuple::keyed(
                        &"cell",
                        Value::List(vec![Value::Str("cell".into()), Value::Str(article.into())]),
                        0,
                    ),
                    &mut state,
                    &mut out,
                );
            }
        }
        assert!(out.is_empty(), "no emission before window end");
        op.on_period_end(&mut state, &mut out);
        let emitted = out.drain();
        assert_eq!(emitted.len(), 1);
        let items = emitted[0].value.as_list().unwrap();
        assert_eq!(items.len(), 4, "top-2 entries");
        assert_eq!(items[0].as_str(), Some("a"));
        // Window cleared.
        op.on_period_end(&mut state, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn state_roundtrips_for_all_stateful_ops() {
        let ops: Vec<Box<dyn Operator>> = vec![
            Box::new(TopKWindowOp { k: 3 }),
            Box::new(GlobalTopKOp { k: 3 }),
            Box::new(SumDelaysByPlaneOp),
            Box::new(RouteDelayOp),
            Box::new(RainScoreOp),
            Box::new(JoinEfficiencyOp),
            Box::new(StoreOp),
        ];
        for op in &ops {
            let mut state = op.new_state();
            as_map(&mut state).insert("k1".into(), 7.5);
            as_map(&mut state).insert("k2".into(), -1.0);
            let bytes = op.serialize_state(&state);
            let mut rebuilt = op.deserialize_state(&bytes);
            assert_eq!(as_map(&mut rebuilt).get("k1"), Some(&7.5), "{}", op.name());
            assert_eq!(as_map(&mut rebuilt).len(), 2);
        }
    }
}
