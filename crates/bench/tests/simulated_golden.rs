//! Golden accounting of the simulated backend at paper scale: every Table 3
//! workload under every strategy, with `RunConfig::paper`'s cycles and
//! records. Work counts, bytes and busy time are deterministic and pinned
//! exactly. Per-cycle `train_secs` is a difference of the virtual clock,
//! which also carries the measured wall time of planning, so it is pinned
//! to a relative tolerance instead of bit for bit.

use nautilus_bench::RunConfig;
use nautilus_core::session::{CycleInput, ModelSelection};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, Strategy};
use std::fmt::Write as _;

const STRATEGIES: [Strategy; 5] = [
    Strategy::CurrentPractice,
    Strategy::MatAll,
    Strategy::MatOnly,
    Strategy::FuseOnly,
    Strategy::Nautilus,
];

/// One pinned run: `(num_units, num_materialized, flops bits, busy_secs
/// bits, disk_read_bytes, cached_read_bytes, disk_write_bytes,
/// feature_bytes, per-cycle train_secs)`.
type Golden = (usize, usize, u64, u64, u64, u64, u64, u64, &'static [f64]);

struct Run {
    units: usize,
    materialized: usize,
    flops: u64,
    busy: u64,
    disk_read: u64,
    cached_read: u64,
    disk_write: u64,
    feature_bytes: u64,
    train_secs: Vec<f64>,
}

fn run(kind: WorkloadKind, strategy: Strategy) -> Run {
    let spec = WorkloadSpec { kind, scale: Scale::Paper };
    let cfg = RunConfig::paper(&spec, strategy);
    let dir = std::env::temp_dir().join(format!(
        "nautilus-golden-{}-{}-{}",
        kind.name(),
        strategy.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = ModelSelection::new(
        spec.candidates().unwrap(),
        cfg.config.clone(),
        strategy,
        BackendKind::Simulated,
        &dir,
    )
    .unwrap();
    let (n_train, n_valid) = cfg.records_per_cycle;
    let train_secs = (0..cfg.cycles)
        .map(|_| session.fit(CycleInput::Virtual { n_train, n_valid }).unwrap().train_secs)
        .collect();
    let init = session.init_report();
    let stats = session.stats();
    let out = Run {
        units: init.num_units,
        materialized: init.num_materialized,
        flops: stats.flops.to_bits(),
        busy: stats.busy_secs.to_bits(),
        disk_read: stats.disk_read_bytes,
        cached_read: stats.cached_read_bytes,
        disk_write: stats.disk_write_bytes,
        feature_bytes: session.feature_bytes(),
        train_secs,
    };
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn simulated_accounting_matches_golden_at_paper_scale() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    let mut i = 0;
    for kind in WorkloadKind::ALL {
        for strategy in STRATEGIES {
            let got = run(kind, strategy);
            let _ = writeln!(
                table,
                "    ({}, {}, {:#x}, {:#x}, {}, {}, {}, {}, &{:?}), // {} {}",
                got.units,
                got.materialized,
                got.flops,
                got.busy,
                got.disk_read,
                got.cached_read,
                got.disk_write,
                got.feature_bytes,
                got.train_secs,
                kind.name(),
                strategy.label()
            );
            let Some(want) = GOLDEN.get(i) else {
                mismatches.push(format!("{} {}: no golden row", kind.name(), strategy.label()));
                i += 1;
                continue;
            };
            i += 1;
            let exact = (
                got.units,
                got.materialized,
                got.flops,
                got.busy,
                got.disk_read,
                got.cached_read,
                got.disk_write,
                got.feature_bytes,
            );
            let pinned = (want.0, want.1, want.2, want.3, want.4, want.5, want.6, want.7);
            if exact != pinned {
                mismatches.push(format!(
                    "{} {}: got {exact:?}, pinned {pinned:?}",
                    kind.name(),
                    strategy.label()
                ));
            }
            let close = got.train_secs.len() == want.8.len()
                && got
                    .train_secs
                    .iter()
                    .zip(want.8)
                    .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(f64::MIN_POSITIVE));
            if !close {
                mismatches.push(format!(
                    "{} {}: train_secs {:?}, pinned {:?}",
                    kind.name(),
                    strategy.label(),
                    got.train_secs,
                    want.8
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 25 runs differ from the golden accounting:\n{}\nmeasured table:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[rustfmt::skip]
const GOLDEN: [Golden; 25] = [
    (36, 0, 0x43764428e7954aea, 0x40d395e9dfb77bf0, 167186498820, 4235412240, 161770254198, 0, &[595.9406313028425, 967.2592353734478, 1338.7583785902277, 1710.076982661461, 2081.5761258854855, 2452.8947299588053, 2824.3938731771013, 3195.71247724963, 3567.211620471924, 3938.53022455077]), // FTR-1 current-practice
    (36, 16, 0x43554c643543f6ca, 0x40b2bbf96701a4de, 530815404408, 1934585777712, 65938665198, 37355531520, &[263.3485422274914, 367.5647227739567, 469.9395673784644, 640.3322893086597, 759.2959379637614, 878.0790474709934, 997.3376081932424, 1116.1944457717482, 1235.4581933345844, 1354.2692432543154]), // FTR-1 mat-all
    (36, 5, 0x4358c0605aaaf6ca, 0x40b5c5891db06afb, 218027590614, 1168486832766, 39488933448, 9830403600, &[275.1439977367624, 385.68156760924495, 496.39967662739366, 610.97534529461, 721.6934543129098, 841.4494280828949, 1018.9086853161598, 1140.8769800134223, 1262.6571737127706, 1384.2568282662496]), // FTR-1 nautilus-w/o-fuse
    (2, 0, 0x4359cd75e565f6ca, 0x40b6b2397abc31dc, 0, 19707644740, 29451930676, 0, &[117.26790380792178, 223.1252086127311, 328.9930525634028, 434.8503573681918, 540.7182013188824, 646.5755061236289, 752.4433500742662, 858.3006548790595, 964.168498830521, 1070.0258036356481]), // FTR-1 nautilus-w/o-mat
    (6, 5, 0x435673118e33f6ca, 0x40b3bf2ccb7dd227, 2873535564, 193633143696, 38771943620, 9830403600, &[122.24135720966177, 215.11591815272087, 308.0210182415876, 400.89557918460787, 493.8006792734732, 586.6752402164161, 679.5803403053974, 772.4549012484235, 868.0539409290541, 960.928501873299]), // FTR-1 nautilus
    (24, 0, 0x437123cdb7f1bf6e, 0x40ce271b0f76b668, 111654157020, 2815926480, 121098228738, 0, &[437.57359445482416, 722.7155585686269, 1007.9778915532395, 1293.1198556676159, 1578.3821886532373, 1863.524152771568, 2148.78648575812, 2433.9284498760735, 2719.1907828622916, 3004.3327469764863]), // FTR-2 current-practice
    (24, 15, 0x434d2f39d97df1b8, 0x40a9abc2869cf351, 381014025276, 1535274260844, 54673152282, 35389450800, &[177.69920153499461, 245.71027311065853, 320.38599324433767, 390.9775453598072, 527.6760399820973, 611.1699947978225, 694.7843184835588, 778.2809616662585, 861.9008562401373, 945.713726642397]), // FTR-2 mat-all
    (24, 4, 0x43520b7561eaf8dc, 0x40afbea32b5a246a, 136434414120, 967461206400, 27658428702, 7864322880, &[190.04031143979512, 270.3286875402582, 350.73743251119055, 431.0258086115988, 511.4345535836512, 594.0631354916959, 683.3192437006792, 824.1383300083758, 913.6893502877515, 1002.8250896347627]), // FTR-2 nautilus-w/o-fuse
    (2, 0, 0x435318a06346f8dc, 0x40b0cc14d3d91c51, 0, 16302029340, 20152519556, 0, &[89.13790263396584, 167.58906981235373, 246.05060586156532, 324.5017730399345, 402.9633090891108, 481.4144762673984, 559.8760123166678, 638.3271794950642, 716.788715544269, 795.2398827226416]), // FTR-2 nautilus-w/o-mat
    (2, 4, 0x434f7c7cc08bf1b8, 0x40abb214620a43c6, 0, 100030003960, 27318116990, 7864322880, &[75.12073376367607, 139.6420772510217, 204.17378960919672, 268.6951330965403, 333.22684545471634, 397.7481889420178, 462.2799013001875, 526.8012447875255, 591.3329571456952, 655.8543006330319]), // FTR-2 nautilus
    (12, 0, 0x436afdc6ac0033d0, 0x40c7bde73eb29587, 50998689828, 7761939252, 62336860932, 0, &[299.48094138063635, 534.4549105532932, 758.8944930533846, 983.2437351786289, 1207.6833176800083, 1432.0325598067598, 1656.472142309427, 1880.821384437113, 2105.2609669407902, 2329.6102090672866]), // FTR-3 current-practice
    (12, 14, 0x434aa43c0883e7ca, 0x40a76f24475c4e14, 199220652792, 3024445498008, 44087357628, 33423370080, &[128.77829441289498, 193.50181810197105, 258.3156821657566, 323.8901738094247, 394.60429488601824, 460.8032428675208, 527.0921471713666, 593.2907111024292, 805.9035112340389, 889.5071658707843]), // FTR-3 mat-all
    (12, 1, 0x43577d30645df3e5, 0x40b4a941cb48529b, 0, 820313139600, 13650876948, 1966080720, &[165.15318519849689, 266.12398891316855, 367.18513300246786, 468.155936716694, 569.2170808066853, 670.1878845208421, 771.2490286090083, 872.2198323233824, 973.2809764195163, 1074.2517801346485]), // FTR-3 nautilus-w/o-fuse
    (2, 0, 0x4357a8fdf72bf3e5, 0x40b4cfc95b8b7096, 0, 13688155380, 11532826214, 0, &[110.65090871378544, 208.20843722947316, 305.7863061200103, 403.3438346356379, 500.92170352623293, 598.4792320419185, 696.0571009323589, 793.6146294480313, 891.1924983385557, 988.7500268547938]), // FTR-3 nautilus-w/o-mat
    (2, 1, 0x4350fe6e1431f3e5, 0x40ade55b7da0a619, 0, 183811014560, 12800181664, 1966080720, &[83.36724112269548, 153.72844719254573, 224.10999363725557, 294.4711997069897, 364.8527461516088, 435.21395222141996, 505.59549866608245, 575.9567047361256, 646.3382511808177, 716.6994572506565]), // FTR-3 nautilus
    (24, 0, 0x4370aab8ad786030, 0x40cd52187d45c46b, 104521286820, 2815926480, 114953202198, 0, &[427.3146906479146, 704.7110295411392, 982.2273806627909, 1259.623719555897, 1537.1400706791533, 1814.5364095769655, 2092.0527606997066, 2369.4490995993074, 2646.9654507227897, 2924.3617896176584]), // ATR current-practice
    (24, 12, 0x43570c3a8237775c, 0x40b445e55ad671b7, 146362615236, 962308053444, 36018561318, 23592968640, &[209.19871491873042, 310.0127092264713, 410.9467157623516, 514.9962374074239, 615.9302439434716, 724.1170409506667, 826.52560802689, 988.1652246118615, 1097.946594395482, 1207.6079519441137]), // ATR mat-all
    (24, 4, 0x43570c3a8237775c, 0x40b445e55ad671b7, 134103344472, 974567324208, 20289915558, 7864322880, &[209.19871491873042, 310.01270922647143, 410.9467157623516, 511.7607100699239, 612.6947166059717, 716.7442382506665, 817.6782447868895, 987.8703125443622, 1097.946594395481, 1207.6079519441137]), // ATR nautilus-w/o-fuse
    (2, 0, 0x435b2d25c36d775c, 0x40b7e79258efd1f2, 0, 25613428420, 13237695624, 0, &[120.91744037491334, 232.45864481204936, 344.0098614776999, 455.5510659148048, 567.1022825804575, 678.6434870176688, 790.1947036833362, 901.7359081204759, 1013.2871247871708, 1124.8283292244196]), // ATR nautilus-w/o-mat
    (2, 4, 0x435832d7fe9b775c, 0x40b5490acba0ae8c, 0, 109908446480, 20460003742, 7864322880, &[108.47794416282406, 207.6599082561242, 306.85188457792276, 406.03384867117757, 505.22582499305713, 604.4077890863516, 703.599765407977, 802.7817295012437, 901.9737058235505, 1001.1556699174425]), // ATR nautilus
    (24, 0, 0x4347273abe3cb270, 0x40a45da56ba9da10, 0, 1672879917000, 7205843692, 0, &[164.56062013453254, 220.19066800463645, 275.94083959244756, 331.57088746218267, 387.3210590500954, 442.9511069200282, 498.70127850818153, 554.3313263782334, 610.0814979661955, 665.7115458361668]), // FTU current-practice
    (24, 15, 0x4335bc8ffb2da4e0, 0x40931ea41041f526, 15534390600, 543303856080, 47258980472, 41144333200, &[136.5283663185733, 164.41063661173266, 192.41303062276603, 220.2953009154894, 248.76178813890726, 280.4072617316258, 309.16229640227834, 337.79720735518686, 366.5522420263453, 395.18715298114057]), // FTU mat-all
    (24, 4, 0x4335bc8ffb2da4e0, 0x40931ea41041f526, 0, 558838246680, 10128730792, 4014083520, &[136.5283663185733, 164.4106366117326, 192.41303062276592, 220.29530091548935, 248.2976949264072, 276.17996521912596, 304.1823592297783, 332.0646295226868, 360.0670235338457, 387.9492938286403]), // FTU nautilus-w/o-fuse
    (2, 0, 0x43383f1f4fbe64e0, 0x409553d7afad6e38, 0, 141773093020, 6135583950, 0, &[35.02857179134203, 60.51842840394883, 86.01840873454411, 111.5082653471585, 137.00824567777045, 162.49810229034387, 187.99808262083172, 213.4879392334243, 238.98791956406433, 264.47777617666384]), // FTU nautilus-w/o-mat
    (2, 4, 0x4336f072643594e0, 0x40942d75786a5df7, 0, 72199676300, 10146693938, 4014083520, &[33.47519780378205, 57.41205402983067, 81.35903397386137, 105.29589019991931, 129.24287014393065, 153.1797263699633, 177.12670631393053, 201.0635625399657, 225.01054248407036, 248.94739871023307]), // FTU nautilus
];
