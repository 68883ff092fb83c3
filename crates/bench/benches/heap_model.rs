//! E4 — the laid-out node machinery of Fig. 2: isolating and overwriting a
//! single element at a symbolic offset of an array-like region, and the
//! byte-allocation re-typing path used by the standard-library `Vec`.

use gillian_engine::with_pure_ctx;
use gillian_rust::heap::Heap;
use gillian_rust::types::TypeRegistry;
use gillian_solver::{Expr, Solver};
use hybrid_bench::Criterion;
use rust_ir::{LayoutOracle, Program, Ty};

fn bench_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_model");
    group.bench_function("figure2_isolate_write", |b| {
        b.iter(|| {
            let types = TypeRegistry::new(Program::new("bench"), LayoutOracle::default());
            with_pure_ctx(&Solver::new(), |ctx| {
                let n = ctx.fresh();
                let k = ctx.fresh();
                let vs = ctx.fresh();
                ctx.assume(Expr::le(Expr::Int(0), k.clone()));
                ctx.assume(Expr::lt(k.clone(), n.clone()));
                ctx.assume(Expr::eq(Expr::seq_len(vs.clone()), k.clone()));
                let mut heap = Heap::new();
                let elem = Ty::usize();
                let addr = heap.alloc_array(elem.clone(), n.clone());
                heap.take_uninit_slice(&addr, &elem, &k, &types, ctx)
                    .unwrap();
                heap.give_slice(&addr, &elem, &k, vs, &types, ctx).unwrap();
                let elem_id = types.intern(&elem);
                let at_k = addr.clone().with_index(elem_id, k.clone());
                heap.store(&at_k, &elem, Expr::Int(7), &types, ctx).unwrap();
                heap.load(&at_k, &elem, &types, ctx).unwrap()
            })
        })
    });
    group.bench_function("u8_allocation_retype", |b| {
        b.iter(|| {
            let types = TypeRegistry::new(Program::new("bench"), LayoutOracle::default());
            let mut heap = Heap::new();
            let addr = heap.alloc_array(Ty::u8(), Expr::Int(64));
            heap.retype_array(&addr, Ty::usize(), Expr::Int(8), addr.to_expr())
                .unwrap();
            with_pure_ctx(&Solver::new(), |ctx| {
                let id = types.intern(&Ty::usize());
                let at0 = addr.clone().with_index(id, Expr::Int(0));
                heap.store(&at0, &Ty::usize(), Expr::Int(1), &types, ctx)
                    .unwrap();
                heap.load(&at0, &Ty::usize(), &types, ctx).unwrap()
            })
        })
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_env();
    bench_heap(&mut c);
}
