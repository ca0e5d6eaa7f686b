// Hot-path sort fixture: stable sorts allocate a merge buffer; unstable
// sorts and selection work in place; an annotated stable sort is exempt.

// lint: hot-path
fn hot_sorts(values: &mut [f64], ids: &mut [u32]) {
    values.sort_by(f64::total_cmp);
    ids.sort();
    ids.sort_by_key(|&i| i / 2);
    values.sort_unstable_by(f64::total_cmp);
    ids.sort_unstable();
    values.select_nth_unstable_by(0, f64::total_cmp);
}

fn cold_sort(ids: &mut [u32]) {
    // No marker: setup code may sort stably.
    ids.sort();
}

// lint: hot-path
fn hot_with_exemption(ids: &mut [u32]) {
    // lint: allow(hot-path-alloc) — stable tie order is part of the output contract
    ids.sort();
}
