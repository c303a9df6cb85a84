//! The `bench` command: runs one experiment and prints its report.
//!
//! ```text
//! cargo run --release -p bench -- <experiment> [--json] [--threads N] [--max-n N]
//! ```

fn main() {
    let (name, run, opts) = bench_suite::parse(std::env::args().skip(1)).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    if let Some(n) = opts.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configuring the global thread pool cannot fail");
    }
    let report = run(&opts);
    if opts.json {
        println!("{}", report.render_json(name));
    } else {
        print!("{}", report.render_text());
    }
}
