//! Standalone walkthrough of RefFiL's server-side prompt machinery: clients
//! from different domains upload Local Prompt Groups, the server clusters
//! them domain-wise with FINCH and derives the generalized global prompt.
//!
//! ```text
//! cargo run --release --example prompt_clustering
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use refil::clustering::{cosine_similarity, finch};
use refil::core::{GlobalPromptStore, LocalPromptGroup};
use refil::nn::gaussian;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let dim = 8; // flattened p*d prompt dimension (small for readability)
    let classes = 3;

    // Three "domains", each with its own prompt direction per class.
    let mut domain_dirs = Vec::new();
    for _ in 0..3 {
        let dir: Vec<f32> = (0..dim).map(|_| gaussian(&mut rng)).collect();
        domain_dirs.push(dir);
    }

    // Twelve clients upload LPGs: client c lives in domain c % 3.
    let mut uploads = Vec::new();
    for client in 0..12 {
        let dir = &domain_dirs[client % 3];
        let prompts = (0..classes)
            .map(|k| {
                let v: Vec<f32> = dir
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        d + 0.3 * k as f32 * ((i % 3) as f32) + gaussian(&mut rng) * 0.05
                    })
                    .collect();
                (k, v)
            })
            .collect();
        uploads.push(LocalPromptGroup {
            client_id: client,
            prompts,
        });
    }

    // Raw FINCH view: cluster class 0's prompts directly.
    let class0: Vec<Vec<f32>> = uploads.iter().map(|u| u.prompts[0].1.clone()).collect();
    let partition = finch(&class0);
    println!(
        "FINCH on class 0 prompts: {} clusters from {} uploads",
        partition.finest().num_clusters,
        class0.len()
    );
    println!(
        "labels: {:?} (clients 0..12, domains repeat 0,1,2)",
        partition.finest().labels
    );

    // The full server store.
    let mut store = GlobalPromptStore::new(classes, dim);
    store
        .ingest(&uploads)
        .expect("every synthetic group is in range and finite");
    for k in 0..classes {
        println!(
            "class {k}: {} representatives after clustering",
            store.class_representatives(k).len()
        );
    }

    // The generalized prompt P̄^g (Eq. 8) summarizes all domains at once.
    let general = store.generalized_prompt().expect("store populated");
    for (d, dir) in domain_dirs.iter().enumerate() {
        println!(
            "cos(P̄^g, domain {d} direction) = {:+.3}",
            cosine_similarity(&general, dir)
        );
    }
    println!(
        "\nbroadcast cost: {} bytes of prompts — the framework's entire cross-task memory",
        store.byte_len()
    );
}
