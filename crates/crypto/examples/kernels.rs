//! Prints the kernels this CPU runs (`ddemos_crypto::cpu::backend()`):
//! `portable`, or the vector kernels by name. CI prints it in every job,
//! so that a runner's log says which paths it tested.
//!
//!   cargo run --release -p ddemos-crypto --example kernels

fn main() {
    println!("kernels: {}", ddemos_crypto::cpu::backend());
}
