//! Figure 2: the browser-extension popup, simulated headlessly — the
//! non-member flow (immediate citation generation, disabled buttons) and
//! the member flow (explicit citation editing).
//!
//! Run with: `cargo run --example browser_extension_demo`

use citekit::{Citation, CitedRepo};
use extension::Popup;
use gitlite::{path, Signature};
use hub::{Hub, Role, Transport};

fn render<T: Transport>(popup: &Popup<T>) {
    let v = popup.view();
    println!("+--------------------------- GitCite ---------------------------+");
    println!(
        "| repo: {:<20} branch: {:<10} user: {:<10}|",
        v.repo_id,
        v.branch,
        v.signed_in_as.as_deref().unwrap_or("(anonymous)")
    );
    println!(
        "| selected: {:<52}|",
        v.selected
            .as_ref()
            .map(|p| p.to_string())
            .unwrap_or_default()
    );
    println!("+----------------------------------------------------------------+");
    for line in v.text_box.lines().take(8) {
        println!("| {line:<63}|");
    }
    if v.text_box.is_empty() {
        println!("| (empty citation text box){:<38}|", "");
    }
    println!("+----------------------------------------------------------------+");
    let b = |on: bool, name: &str| {
        if on {
            format!("[{name}]")
        } else {
            format!(" {name} ")
        }
    };
    println!(
        "| {} {} {} {}            |",
        b(v.buttons.generate, "Generate Citation"),
        b(v.buttons.add, "Add"),
        b(v.buttons.modify, "Modify"),
        b(v.buttons.delete, "Delete"),
    );
    println!("| status: {:<55}|", v.status);
    println!("+----------------------------------------------------------------+\n");
}

fn main() {
    // Platform with one project.
    let hub = Hub::new("https://hub.example");
    hub.register_user("leshang", "Leshang Chen").unwrap();
    hub.register_user("yanssie", "Yanssie").unwrap();
    hub.register_user("visitor", "A Visitor").unwrap();
    let leshang = hub.login("leshang").unwrap();
    let repo_id = hub.create_repo(&leshang, "demo").unwrap();
    hub.add_member(&leshang, &repo_id, "yanssie", Role::Member)
        .unwrap();

    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    local
        .write_file(&path("core/algo.rs"), &b"// core\n"[..])
        .unwrap();
    local
        .write_file(&path("tools/gen.py"), &b"# tool\n"[..])
        .unwrap();
    local
        .add_cite(
            &path("core"),
            Citation::builder("demo-core", "Leshang Chen")
                .author("Leshang Chen")
                .build(),
        )
        .unwrap();
    local
        .commit(Signature::new("Leshang Chen", "l@x", 1000), "seed")
        .unwrap();
    hub.push(&leshang, &repo_id, "main", local.repo(), "main", false)
        .unwrap();

    // --- Non-member flow -------------------------------------------------
    println!("### A visitor clicks core/algo.rs — citation appears at once:\n");
    let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
    popup.select(&path("core/algo.rs")).unwrap();
    render(&popup);
    println!("…and copies it for a bibliography manager:\n");
    println!("{}", popup.export(bibformat::Format::Bibtex).unwrap());

    // --- Member flow -----------------------------------------------------
    println!("### Yanssie (a member) signs in and clicks the uncited tools/gen.py:\n");
    let yanssie = hub.login("yanssie").unwrap();
    let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
    popup.sign_in(yanssie).unwrap();
    popup.select(&path("tools/gen.py")).unwrap();
    render(&popup);

    println!("### She presses Generate Citation (closest ancestor), edits it, and Adds:\n");
    let mut c = popup.generate().unwrap();
    c.repo_name = "demo-tools".into();
    c.author_list = vec!["Yanssie".into()];
    popup.edit_text(c.to_value().to_string_pretty());
    popup.add().unwrap();
    render(&popup);

    println!("### The platform's audit log recorded everything:\n");
    for e in hub.audit_log().unwrap().iter().rev().take(6) {
        println!(
            "  #{:<3} {:<18} by {:<12} on {:<16} ok={}",
            e.seq,
            e.action,
            e.actor.as_deref().unwrap_or("-"),
            e.target,
            e.ok
        );
    }
}
