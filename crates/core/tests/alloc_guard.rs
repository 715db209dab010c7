//! Allocation guard for model reads and copies on the intent path.
//!
//! Drivers read a model by attribute path on every reconcile, and the
//! Mounter reads each child's replica on every edge sync. Those reads walk
//! the document in place: a path string is read segment by segment without
//! building a `Path`, and the `DigiModel` accessors address
//! `control.<attr>.intent` and the rest by key. Identities and map keys
//! are shared `Name`s, so copying a reference, an object or an event, or a
//! map on write, copies no text. This binary counts the heap allocations
//! the calling thread makes (its global allocator keeps one counter per
//! thread, so other test threads do not disturb it) and pins the count of
//! each read and copy. Counts repeat exactly, so the guard pins the
//! behaviour without timing it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dspace_apiserver::{Object, ObjectRef, WatchEvent, WatchEventKind};
use dspace_core::model::DigiModel;
use dspace_value::{json, Path, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counter is a thread-local `Cell` with no destructor, so bumping it neither
// allocates nor touches another thread's state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(std::hint::black_box(out));
    after - before
}

fn room() -> Value {
    json::parse(
        r#"{
            "meta": {"kind": "Room", "name": "lvroom", "gen": 7},
            "control": {"brightness": {"intent": 0.8, "status": 0.5}},
            "obs": {"assigned_ul1": 0.8, "objects": ["person"]},
            "mount": {"UniLamp": {"ul1": {
                "mode": "expose", "status": "active", "gen": 3,
                "control": {"brightness": {"intent": 0.8, "status": 0.4}}}}}
        }"#,
    )
    .unwrap()
}

#[test]
fn model_reads_on_the_intent_path_allocate_nothing() {
    // The counter sees this thread's allocations.
    assert_eq!(allocations(|| String::from("x")), 1);
    let mut model = room();
    let paths = [
        ".control.brightness.intent",
        "control.brightness.status",
        ".mount.UniLamp.ul1.control.brightness.status",
        ".obs.objects[0]",
        ".meta.gen",
    ];
    for path in paths {
        let n = allocations(|| model.get_path(path).is_some());
        assert_eq!(n, 0, "get_path({path:?}) allocated {n} times");
    }
    let dm = DigiModel::new(&mut model);
    let reads: [(&str, &dyn Fn() -> Value); 4] = [
        ("intent", &|| dm.intent("brightness")),
        ("status", &|| dm.status("brightness")),
        ("obs", &|| dm.obs("assigned_ul1")),
        ("replica", &|| {
            dm.replica("UniLamp", "ul1", ".control.brightness.status")
        }),
    ];
    for (name, read) in reads {
        let mut value = Value::Null;
        let n = allocations(|| value = read());
        assert!(value.as_f64().is_some(), "{name} read {value}");
        assert_eq!(n, 0, "DigiModel::{name} allocated {n} times");
    }
}

#[test]
fn copying_an_identity_an_object_or_an_event_allocates_nothing() {
    let oref = ObjectRef::new("Room", "h1", "lvroom");
    let object = Object {
        oref: oref.clone(),
        model: room(),
        resource_version: 7,
    };
    let event = WatchEvent {
        revision: 3,
        kind: WatchEventKind::Modified,
        oref: oref.clone(),
        model: room(),
        resource_version: 7,
    };
    let copies = [
        ("ObjectRef", allocations(|| oref.clone())),
        ("Object", allocations(|| object.clone())),
        ("WatchEvent", allocations(|| event.clone())),
    ];
    for (name, n) in copies {
        assert_eq!(n, 0, "{name}::clone allocated {n} times");
    }
}

#[test]
fn a_shared_map_copy_copies_no_key_text() {
    let path: Path = ".k0".parse().unwrap();
    // Writes an existing key of a `keys`-entry map another handle shares.
    let set_in_shared = |keys: usize| {
        let mut doc = dspace_value::object((0..keys).map(|i| (format!("k{i}"), Value::from(i))));
        let held = doc.clone();
        let n = allocations(|| doc.set(&path, Value::from(-1.0)).unwrap());
        assert_eq!(held.get(&path), Some(&Value::from(0usize)));
        n
    };
    let (one, eight) = (set_in_shared(1), set_in_shared(8));
    assert_eq!(
        eight, one,
        "a shared 8-key map's copy allocated {eight} times, a 1-key map's {one}"
    );
}
