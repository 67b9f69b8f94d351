//! The flat adjacency layout of `Circuit`: the fanin and fanout CSR
//! tables describe the same edge multiset, fanout rows are ascending,
//! branches and inputs have their fixed fanin shapes, the branch tables
//! (`stem_of`, `readers`) agree with the branch chains, and
//! `Circuit::fanin_cone` agrees with a naive per-root DFS.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pdf_netlist::{stand_in_profile, Circuit, LineId, LineKind, SynthProfile};

/// Synthetic circuits, with redundancy gadgets (the `+r` structure) in
/// about half of the cases.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..8, 10usize..60, 3usize..7, 0usize..3, any::<u64>()).prop_map(
        |(inputs, gates, levels, gadgets, seed)| {
            SynthProfile::new("csr", seed)
                .with_inputs(inputs)
                .with_gates(gates)
                .with_levels(levels)
                .with_redundant_gadgets(gadgets)
                .generate()
                .to_circuit()
                .expect("generated netlists are valid")
        },
    )
}

fn check_layout(c: &Circuit) -> Result<(), TestCaseError> {
    let ids = || (0..c.line_count()).map(LineId::new);
    let mut by_fanin: Vec<(LineId, LineId)> = ids()
        .flat_map(|g| c.fanin(g).iter().map(move |&f| (f, g)))
        .collect();
    let mut by_fanout: Vec<(LineId, LineId)> = ids()
        .flat_map(|f| c.fanout(f).iter().map(move |&g| (f, g)))
        .collect();
    by_fanin.sort_unstable();
    by_fanout.sort_unstable();
    prop_assert_eq!(
        by_fanin,
        by_fanout,
        "fanin and fanout edge multisets differ"
    );
    for id in ids() {
        prop_assert!(
            c.fanout(id).windows(2).all(|w| w[0] <= w[1]),
            "fanout row of {} not ascending: {:?}",
            id,
            c.fanout(id)
        );
        match c.kind(id) {
            LineKind::Input => prop_assert!(c.fanin(id).is_empty()),
            LineKind::Branch { stem } => prop_assert_eq!(c.fanin(id), &[*stem]),
            LineKind::Gate(_) => prop_assert!(!c.fanin(id).is_empty()),
        }
    }
    check_branch_tables(c)
}

/// The branch tables against a walk up each branch chain.
fn check_branch_tables(c: &Circuit) -> Result<(), TestCaseError> {
    let root = |mut line: LineId| {
        while let LineKind::Branch { stem } = c.kind(line) {
            line = *stem;
        }
        line
    };
    let ids = || (0..c.line_count()).map(LineId::new);
    for id in ids() {
        prop_assert_eq!(c.stem_of(id), root(id));
        let readers: BTreeSet<LineId> = ids()
            .filter(|&g| c.kind(g).is_gate() && c.fanin(g).iter().any(|&f| root(f) == id))
            .collect();
        if c.kind(id).is_branch() {
            prop_assert!(c.readers(id).is_empty());
        } else {
            prop_assert_eq!(c.readers(id), readers.into_iter().collect::<Vec<_>>());
        }
    }
    Ok(())
}

/// Every line with a path to some root, by one recursive DFS per root.
fn naive_cone(c: &Circuit, roots: &[LineId]) -> BTreeSet<LineId> {
    fn visit(c: &Circuit, l: LineId, seen: &mut BTreeSet<LineId>) {
        if seen.insert(l) {
            for &f in c.fanin(l) {
                visit(c, f, seen);
            }
        }
    }
    let mut seen = BTreeSet::new();
    for &r in roots {
        visit(c, r, &mut seen);
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fanin_and_fanout_tables_agree(c in arb_circuit()) {
        check_layout(&c)?;
    }

    #[test]
    fn fanin_cone_matches_naive_dfs(
        (c, picks) in arb_circuit().prop_flat_map(|c| {
            let n = c.line_count();
            (Just(c), proptest::collection::vec(0..n, 0..6))
        })
    ) {
        let roots: Vec<LineId> = picks.into_iter().map(LineId::new).collect();
        let mask = c.fanin_cone(roots.iter().copied());
        prop_assert_eq!(mask.len(), c.line_count());
        let members: BTreeSet<LineId> = (0..c.line_count())
            .filter(|&i| mask[i])
            .map(LineId::new)
            .collect();
        prop_assert_eq!(members, naive_cone(&c, &roots));
    }
}

#[test]
fn redundancy_stand_ins_have_a_consistent_layout() {
    for name in ["b03+r", "b04+r", "s641+r"] {
        let mut netlist = stand_in_profile(name).expect("known stand-in").generate();
        if netlist.dff_count() > 0 {
            netlist = netlist.combinational_core();
        }
        if netlist.gates().iter().any(|g| g.kind.is_parity()) {
            netlist = netlist.decompose_parity();
        }
        let c = netlist.to_circuit().expect("stand-ins are valid");
        check_layout(&c).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}
